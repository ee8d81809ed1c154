// Paged B+ tree index mapping int64 keys to tuple Rids.
//
// Duplicate keys are supported by making every stored key the composite
// (key, packed rid), which is unique; internal separators carry the full
// composite, so the tree is a textbook unique-key B+ tree.
//
// Deletes remove leaf entries without rebalancing (pages may underflow but
// never violate ordering); the workloads here are insert/scan heavy, and the
// cost model charges index height, which merging would not change much.
//
// Page layouts:
//   common  [0] u8 node_type (1=leaf, 2=internal); [2..4) u16 entry count
//   leaf    [4..8) u32 next_leaf; entries at 8+i*16: {i64 key, u64 rid}
//   internal[8..12) u32 child0; entries at 12+i*20: {i64 key, u64 rid,
//            u32 child}; entry i separates child i and child i+1.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/storage_defs.h"

namespace pse {

/// \brief B+ tree over (int64 key, Rid) pairs.
class BPlusTree {
 public:
  /// Creates an empty tree (allocates the root leaf).
  static Result<BPlusTree> Create(BufferPool* pool);

  /// Re-attaches to a persisted tree (root/height/entries from the
  /// catalog superblock).
  static BPlusTree Attach(BufferPool* pool, PageId root, uint32_t height,
                          uint64_t num_entries);

  /// Inserts (key, rid). Duplicate (key, rid) pairs are rejected.
  Status Insert(int64_t key, Rid rid);
  /// Removes (key, rid). NotFound if absent.
  Status Delete(int64_t key, Rid rid);
  /// Collects the rids of all entries with exactly `key`.
  Status ScanEqual(int64_t key, std::vector<Rid>* out) const;
  /// Collects rids for key in [lo, hi] (inclusive).
  Status ScanRange(int64_t lo, int64_t hi, std::vector<Rid>* out) const;
  /// Like ScanRange, but stops once it has collected `limit` rids and the
  /// key in progress is complete, so a key's entries are never split.
  /// `*resume` receives the first key left out, or nullopt when [lo, hi]
  /// is exhausted.
  Status ScanRange(int64_t lo, int64_t hi, size_t limit, std::vector<Rid>* out,
                   std::optional<int64_t>* resume) const;

  /// Number of levels (1 = root is a leaf).
  uint32_t height() const { return height_; }
  uint64_t num_entries() const { return num_entries_; }
  PageId root() const { return root_; }

  /// Verifies ordering and child-separator invariants; returns the number
  /// of entries seen. Test helper.
  Result<uint64_t> CheckInvariants() const;

 private:
  explicit BPlusTree(BufferPool* pool) : pool_(pool) {}

  struct SplitResult {
    int64_t key;
    uint64_t rid;
    PageId right;
  };

  Status InsertRec(PageId node, int64_t key, uint64_t rid,
                   std::optional<SplitResult>* split);
  /// Descends to the leaf that may contain the first entry >= (key, rid).
  Result<PageId> FindLeaf(int64_t key, uint64_t rid) const;
  Result<uint64_t> CheckNode(PageId node, bool has_lo, int64_t lo_key, uint64_t lo_rid,
                             bool has_hi, int64_t hi_key, uint64_t hi_rid,
                             uint32_t depth, uint32_t* leaf_depth) const;

  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 1;
  uint64_t num_entries_ = 0;
};

}  // namespace pse
