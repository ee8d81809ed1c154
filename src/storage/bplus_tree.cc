#include "storage/bplus_tree.h"

#include <cstring>

namespace pse {

namespace {
constexpr uint8_t kLeaf = 1;
constexpr uint8_t kInternal = 2;

constexpr size_t kLeafHeader = 8;
constexpr size_t kLeafEntrySize = 16;
constexpr size_t kLeafCapacity = (kPageSize - kLeafHeader) / kLeafEntrySize;  // 511

constexpr size_t kInternalHeader = 12;  // type/count + child0
constexpr size_t kInternalEntrySize = 20;
constexpr size_t kInternalCapacity = (kPageSize - kInternalHeader) / kInternalEntrySize;  // 408

struct Composite {
  int64_t key;
  uint64_t rid;
  bool operator<(const Composite& o) const {
    return key != o.key ? key < o.key : rid < o.rid;
  }
  bool operator==(const Composite& o) const { return key == o.key && rid == o.rid; }
};

uint8_t NodeType(const char* p) { return static_cast<uint8_t>(p[0]); }
void SetNodeType(char* p, uint8_t t) { p[0] = static_cast<char>(t); }
uint16_t Count(const char* p) {
  uint16_t v;
  std::memcpy(&v, p + 2, 2);
  return v;
}
void SetCount(char* p, uint16_t v) { std::memcpy(p + 2, &v, 2); }

// -- leaf accessors --
PageId NextLeaf(const char* p) {
  PageId v;
  std::memcpy(&v, p + 4, 4);
  return v;
}
void SetNextLeaf(char* p, PageId v) { std::memcpy(p + 4, &v, 4); }
Composite LeafEntry(const char* p, size_t i) {
  Composite c;
  std::memcpy(&c.key, p + kLeafHeader + i * kLeafEntrySize, 8);
  std::memcpy(&c.rid, p + kLeafHeader + i * kLeafEntrySize + 8, 8);
  return c;
}
void SetLeafEntry(char* p, size_t i, Composite c) {
  std::memcpy(p + kLeafHeader + i * kLeafEntrySize, &c.key, 8);
  std::memcpy(p + kLeafHeader + i * kLeafEntrySize + 8, &c.rid, 8);
}
/// First index with entry >= c.
size_t LeafLowerBound(const char* p, Composite c) {
  size_t lo = 0, hi = Count(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (LeafEntry(p, mid) < c) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// -- internal accessors --
PageId Child0(const char* p) {
  PageId v;
  std::memcpy(&v, p + 8, 4);
  return v;
}
void SetChild0(char* p, PageId v) { std::memcpy(p + 8, &v, 4); }
Composite InternalKey(const char* p, size_t i) {
  Composite c;
  std::memcpy(&c.key, p + kInternalHeader + i * kInternalEntrySize, 8);
  std::memcpy(&c.rid, p + kInternalHeader + i * kInternalEntrySize + 8, 8);
  return c;
}
PageId InternalChild(const char* p, size_t i) {
  // Child to the right of separator i (i in [0, count)); child 0 is Child0.
  PageId v;
  std::memcpy(&v, p + kInternalHeader + i * kInternalEntrySize + 16, 4);
  return v;
}
void SetInternalEntry(char* p, size_t i, Composite c, PageId child) {
  std::memcpy(p + kInternalHeader + i * kInternalEntrySize, &c.key, 8);
  std::memcpy(p + kInternalHeader + i * kInternalEntrySize + 8, &c.rid, 8);
  std::memcpy(p + kInternalHeader + i * kInternalEntrySize + 16, &child, 4);
}
/// Child index to descend into for composite c: number of separators <= c.
/// (Separator s sits between children; keys < s go left, keys >= s go right.)
size_t InternalChildIndex(const char* p, Composite c) {
  size_t lo = 0, hi = Count(p);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    Composite k = InternalKey(p, mid);
    if (k < c || k == c) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;  // descend Child(lo); Child(0)==Child0
}
PageId ChildAt(const char* p, size_t idx) {
  return idx == 0 ? Child0(p) : InternalChild(p, idx - 1);
}
}  // namespace

Result<BPlusTree> BPlusTree::Create(BufferPool* pool) {
  BPlusTree tree(pool);
  PSE_ASSIGN_OR_RETURN(PageGuard g, pool->NewPage());
  char* p = g.mutable_data();
  SetNodeType(p, kLeaf);
  SetCount(p, 0);
  SetNextLeaf(p, kInvalidPageId);
  tree.root_ = g.page_id();
  return tree;
}

BPlusTree BPlusTree::Attach(BufferPool* pool, PageId root, uint32_t height,
                            uint64_t num_entries) {
  BPlusTree tree(pool);
  tree.root_ = root;
  tree.height_ = height;
  tree.num_entries_ = num_entries;
  return tree;
}

Status BPlusTree::Insert(int64_t key, Rid rid) {
  std::optional<SplitResult> split;
  PSE_RETURN_NOT_OK(InsertRec(root_, key, rid.Pack(), &split));
  if (split.has_value()) {
    PSE_ASSIGN_OR_RETURN(PageGuard g, pool_->NewPage());
    char* p = g.mutable_data();
    SetNodeType(p, kInternal);
    SetCount(p, 1);
    SetChild0(p, root_);
    SetInternalEntry(p, 0, Composite{split->key, split->rid}, split->right);
    root_ = g.page_id();
    ++height_;
  }
  ++num_entries_;
  return Status::OK();
}

Status BPlusTree::InsertRec(PageId node, int64_t key, uint64_t rid,
                            std::optional<SplitResult>* split) {
  split->reset();
  Composite c{key, rid};
  PSE_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(node));
  if (NodeType(g.data()) == kLeaf) {
    char* p = g.mutable_data();
    uint16_t n = Count(p);
    size_t pos = LeafLowerBound(p, c);
    if (pos < n && LeafEntry(p, pos) == c) {
      return Status::AlreadyExists("duplicate (key,rid) in index");
    }
    if (n < kLeafCapacity) {
      std::memmove(p + kLeafHeader + (pos + 1) * kLeafEntrySize,
                   p + kLeafHeader + pos * kLeafEntrySize, (n - pos) * kLeafEntrySize);
      SetLeafEntry(p, pos, c);
      SetCount(p, static_cast<uint16_t>(n + 1));
      return Status::OK();
    }
    // Split leaf: left keeps [0, half), right gets [half, n); then insert.
    PSE_ASSIGN_OR_RETURN(PageGuard rg, pool_->NewPage());
    char* rp = rg.mutable_data();
    SetNodeType(rp, kLeaf);
    size_t half = n / 2;
    size_t right_n = n - half;
    std::memcpy(rp + kLeafHeader, p + kLeafHeader + half * kLeafEntrySize,
                right_n * kLeafEntrySize);
    SetCount(rp, static_cast<uint16_t>(right_n));
    SetNextLeaf(rp, NextLeaf(p));
    SetCount(p, static_cast<uint16_t>(half));
    SetNextLeaf(p, rg.page_id());
    // Insert into the proper half.
    Composite sep = LeafEntry(rp, 0);
    char* target = (c < sep) ? p : rp;
    uint16_t tn = Count(target);
    size_t tpos = LeafLowerBound(target, c);
    std::memmove(target + kLeafHeader + (tpos + 1) * kLeafEntrySize,
                 target + kLeafHeader + tpos * kLeafEntrySize, (tn - tpos) * kLeafEntrySize);
    SetLeafEntry(target, tpos, c);
    SetCount(target, static_cast<uint16_t>(tn + 1));
    sep = LeafEntry(rp, 0);
    *split = SplitResult{sep.key, sep.rid, rg.page_id()};
    return Status::OK();
  }

  // Internal node.
  size_t idx = InternalChildIndex(g.data(), c);
  PageId child = ChildAt(g.data(), idx);
  std::optional<SplitResult> child_split;
  // Keep parent pinned during recursion: fine, pool capacity >> height.
  PSE_RETURN_NOT_OK(InsertRec(child, key, rid, &child_split));
  if (!child_split.has_value()) return Status::OK();

  char* p = g.mutable_data();
  uint16_t n = Count(p);
  Composite sep{child_split->key, child_split->rid};
  PageId right = child_split->right;
  if (n < kInternalCapacity) {
    std::memmove(p + kInternalHeader + (idx + 1) * kInternalEntrySize,
                 p + kInternalHeader + idx * kInternalEntrySize,
                 (n - idx) * kInternalEntrySize);
    SetInternalEntry(p, idx, sep, right);
    SetCount(p, static_cast<uint16_t>(n + 1));
    return Status::OK();
  }
  // Split internal node. Build the full entry list (n+1 entries) in a
  // scratch buffer, promote the middle.
  std::vector<char> scratch((n + 1) * kInternalEntrySize);
  std::memcpy(scratch.data(), p + kInternalHeader, idx * kInternalEntrySize);
  {
    char tmp[kInternalEntrySize];
    std::memcpy(tmp, &sep.key, 8);
    std::memcpy(tmp + 8, &sep.rid, 8);
    std::memcpy(tmp + 16, &right, 4);
    std::memcpy(scratch.data() + idx * kInternalEntrySize, tmp, kInternalEntrySize);
  }
  std::memcpy(scratch.data() + (idx + 1) * kInternalEntrySize,
              p + kInternalHeader + idx * kInternalEntrySize, (n - idx) * kInternalEntrySize);
  size_t total = n + 1;
  size_t mid = total / 2;
  auto entry_at = [&](size_t i) {
    Composite e;
    PageId ch;
    std::memcpy(&e.key, scratch.data() + i * kInternalEntrySize, 8);
    std::memcpy(&e.rid, scratch.data() + i * kInternalEntrySize + 8, 8);
    std::memcpy(&ch, scratch.data() + i * kInternalEntrySize + 16, 4);
    return std::pair<Composite, PageId>(e, ch);
  };
  PSE_ASSIGN_OR_RETURN(PageGuard rg, pool_->NewPage());
  char* rp = rg.mutable_data();
  SetNodeType(rp, kInternal);
  auto [mid_entry, mid_child] = entry_at(mid);
  // Left keeps entries [0, mid); right gets (mid, total) with child0 = child
  // of the promoted separator.
  std::memcpy(p + kInternalHeader, scratch.data(), mid * kInternalEntrySize);
  SetCount(p, static_cast<uint16_t>(mid));
  SetChild0(rp, mid_child);
  size_t right_n = total - mid - 1;
  std::memcpy(rp + kInternalHeader, scratch.data() + (mid + 1) * kInternalEntrySize,
              right_n * kInternalEntrySize);
  SetCount(rp, static_cast<uint16_t>(right_n));
  *split = SplitResult{mid_entry.key, mid_entry.rid, rg.page_id()};
  return Status::OK();
}

Result<PageId> BPlusTree::FindLeaf(int64_t key, uint64_t rid) const {
  Composite c{key, rid};
  PageId node = root_;
  while (true) {
    PSE_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(node));
    if (NodeType(g.data()) == kLeaf) return node;
    node = ChildAt(g.data(), InternalChildIndex(g.data(), c));
  }
}

Status BPlusTree::Delete(int64_t key, Rid rid) {
  Composite c{key, rid.Pack()};
  PSE_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(key, rid.Pack()));
  PSE_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(leaf));
  char* p = g.mutable_data();
  uint16_t n = Count(p);
  size_t pos = LeafLowerBound(p, c);
  if (pos >= n || !(LeafEntry(p, pos) == c)) {
    return Status::NotFound("(key,rid) not in index");
  }
  std::memmove(p + kLeafHeader + pos * kLeafEntrySize,
               p + kLeafHeader + (pos + 1) * kLeafEntrySize, (n - pos - 1) * kLeafEntrySize);
  SetCount(p, static_cast<uint16_t>(n - 1));
  --num_entries_;
  return Status::OK();
}

Status BPlusTree::ScanEqual(int64_t key, std::vector<Rid>* out) const {
  return ScanRange(key, key, out);
}

Status BPlusTree::ScanRange(int64_t lo, int64_t hi, std::vector<Rid>* out) const {
  std::optional<int64_t> resume;
  return ScanRange(lo, hi, SIZE_MAX, out, &resume);
}

Status BPlusTree::ScanRange(int64_t lo, int64_t hi, size_t limit, std::vector<Rid>* out,
                            std::optional<int64_t>* resume) const {
  resume->reset();
  if (lo > hi) return Status::OK();
  PSE_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(lo, 0));
  Composite start{lo, 0};
  PageId pid = leaf;
  size_t taken = 0;
  int64_t last_key = 0;
  while (pid != kInvalidPageId) {
    PSE_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(pid));
    const char* p = g.data();
    uint16_t n = Count(p);
    size_t i = LeafLowerBound(p, start);
    for (; i < n; ++i) {
      Composite e = LeafEntry(p, i);
      if (e.key > hi) return Status::OK();
      if (taken != 0 && taken >= limit && e.key != last_key) {
        *resume = e.key;
        return Status::OK();
      }
      out->push_back(Rid::Unpack(e.rid));
      last_key = e.key;
      ++taken;
    }
    pid = NextLeaf(p);
    start = Composite{INT64_MIN, 0};  // from the next leaf on, take everything
  }
  return Status::OK();
}

Result<uint64_t> BPlusTree::CheckInvariants() const {
  uint32_t leaf_depth = 0;
  return CheckNode(root_, false, 0, 0, false, 0, 0, 1, &leaf_depth);
}

Result<uint64_t> BPlusTree::CheckNode(PageId node, bool has_lo, int64_t lo_key, uint64_t lo_rid,
                                      bool has_hi, int64_t hi_key, uint64_t hi_rid,
                                      uint32_t depth, uint32_t* leaf_depth) const {
  PSE_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(node));
  const char* p = g.data();
  Composite lo{lo_key, lo_rid}, hi{hi_key, hi_rid};
  if (NodeType(p) == kLeaf) {
    if (*leaf_depth == 0) *leaf_depth = depth;
    if (*leaf_depth != depth) return Status::Internal("leaves at different depths");
    uint16_t n = Count(p);
    for (uint16_t i = 0; i < n; ++i) {
      Composite e = LeafEntry(p, i);
      if (i > 0 && !(LeafEntry(p, i - 1) < e)) return Status::Internal("leaf not sorted");
      if (has_lo && e < lo) return Status::Internal("leaf entry below lower bound");
      if (has_hi && !(e < hi)) return Status::Internal("leaf entry above upper bound");
    }
    return static_cast<uint64_t>(n);
  }
  uint16_t n = Count(p);
  if (n == 0) return Status::Internal("empty internal node");
  uint64_t total = 0;
  for (uint16_t i = 0; i <= n; ++i) {
    Composite child_lo = (i == 0) ? lo : InternalKey(p, i - 1);
    bool child_has_lo = (i == 0) ? has_lo : true;
    Composite child_hi = (i == n) ? hi : InternalKey(p, i);
    bool child_has_hi = (i == n) ? has_hi : true;
    if (i > 0 && i < n && !(InternalKey(p, i - 1) < InternalKey(p, i))) {
      return Status::Internal("internal separators not sorted");
    }
    PSE_ASSIGN_OR_RETURN(
        uint64_t sub,
        CheckNode(ChildAt(p, i), child_has_lo, child_lo.key, child_lo.rid, child_has_hi,
                  child_hi.key, child_hi.rid, depth + 1, leaf_depth));
    total += sub;
  }
  return total;
}

}  // namespace pse
