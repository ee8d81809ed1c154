// Heap file of slotted pages storing variable-length tuples.
//
// Page layout (kPageSize bytes):
//   [0..4)   u32 next_page_id (kInvalidPageId at tail)
//   [4..6)   u16 slot_count
//   [6..8)   u16 free_end     (tuple bytes occupy [free_end, kPageSize))
//   [8..)    slot array: per slot {u16 offset, u16 size}; offset==0 marks a
//            deleted slot (tuple offsets are always >= header size, so 0 is
//            a safe sentinel).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace pse {

/// \brief Unordered collection of rows for one table.
///
/// Rows are serialized with TupleCodec. Updates that no longer fit in place
/// are relocated (the returned Rid changes); callers owning indexes must
/// re-index in that case.
class TableHeap {
 public:
  /// Creates an empty heap (allocates the first page).
  static Result<TableHeap> Create(BufferPool* pool, const TableSchema* schema);
  /// Re-attaches to an existing heap.
  static TableHeap Attach(BufferPool* pool, const TableSchema* schema, PageId first_page,
                          PageId last_page, uint64_t num_pages = 0);

  /// Appends a row; returns its Rid.
  Result<Rid> Insert(const Row& row);
  /// Reads the row at `rid`. NotFound for deleted/invalid slots.
  Status Get(const Rid& rid, Row* out) const;
  /// Deletes the row at `rid`.
  Status Delete(const Rid& rid);
  /// Replaces the row at `rid`; returns the (possibly new) Rid.
  Result<Rid> Update(const Rid& rid, const Row& row);

  PageId first_page() const { return first_page_; }
  PageId last_page() const { return last_page_; }
  /// Pages currently in the heap chain.
  uint64_t NumPages() const { return num_pages_; }
  const TableSchema* schema() const { return schema_; }

  /// \brief Forward scan over live tuples.
  ///
  /// Usage: for (auto it = heap.Begin(); !it.AtEnd(); it.Next()) { it.row() }
  /// Iteration pins one page at a time.
  class Iterator {
   public:
    /// An already-exhausted iterator (placeholder before assignment).
    Iterator() : at_end_(true) {}

    bool AtEnd() const { return at_end_; }
    /// Advances to the next live tuple.
    Status Next();
    const Row& row() const { return row_; }
    Rid rid() const { return rid_; }

    /// \brief Appends up to `max_rows` live tuples to `out`, advancing past
    /// them.
    ///
    /// Equivalent to repeating { out->push_back(row()); Next(); } but pins
    /// each heap page once instead of once per tuple — the storage half of
    /// the migration copy loop's batched scan. Starts with the current
    /// tuple; afterwards the iterator is positioned on the first unconsumed
    /// tuple (or AtEnd()).
    /// Returns the number appended (0 at end of stream).
    Result<size_t> FillBatch(size_t max_rows, std::vector<Row>* out);

    /// \brief Column-pruned FillBatch feeding the batch engine's scan directly.
    ///
    /// Decodes only the columns named by `wanted` (strictly ascending
    /// positions), appending one value per consumed tuple to each matching
    /// `cols[k]` vector — no intermediate Row and no allocation for skipped
    /// columns (see TupleCodec::DeserializeColumns). Advances exactly like
    /// FillBatch and returns the number of tuples consumed.
    Result<size_t> FillBatchColumns(size_t max_rows, const std::vector<size_t>& wanted,
                                    const std::vector<std::vector<Value>*>& cols);

   private:
    friend class TableHeap;
    Iterator(const TableHeap* heap) : heap_(heap) {}
    Status LoadFirst();
    /// Scans forward from current position (exclusive) to the next live slot.
    Status Advance(bool include_current);

    const TableHeap* heap_ = nullptr;
    bool at_end_ = false;
    Rid rid_;
    Row row_;
  };

  /// Iterator positioned at the first live tuple. Errors surface through
  /// Next(); a Begin() on an unreadable heap yields AtEnd().
  Iterator Begin() const;

  /// \brief Counts live tuples without deserializing them, defensively.
  ///
  /// Walks at most `max_pages` pages of the chain and validates every slot
  /// (offsets inside the page, tuple bytes in bounds) before trusting it.
  /// Returns Internal on any anomaly — a longer-than-expected chain, a
  /// malformed slot, an out-of-bounds tuple. Crash recovery uses this to
  /// decide whether an interrupted copy can continue from its journaled
  /// cursor or the destination must be rebuilt: pages flushed after the
  /// last checkpoint make the count (or the chain) disagree with the
  /// checkpointed catalog.
  Result<uint64_t> CountRowsBounded(uint64_t max_pages) const;

  /// \brief Clamps the page chain to its first `keep_pages` pages.
  ///
  /// Rewrites the next-pointer of the keep_pages-th page to end the chain
  /// there (pages beyond it are orphaned; page ids are never reused). Crash
  /// recovery uses this before dropping a heap whose chain grew past the
  /// checkpointed catalog — the un-checkpointed tail may contain a
  /// never-written (zeroed) page whose next-pointer cannot be trusted, so
  /// the regular drop walk must not cross into it.
  Status TruncateChain(uint64_t keep_pages);

 private:
  TableHeap(BufferPool* pool, const TableSchema* schema)
      : pool_(pool), schema_(schema) {}

  static uint16_t SlotCount(const char* page);
  static uint16_t FreeEnd(const char* page);
  static PageId NextPage(const char* page);

  BufferPool* pool_ = nullptr;
  const TableSchema* schema_ = nullptr;
  PageId first_page_ = kInvalidPageId;
  PageId last_page_ = kInvalidPageId;
  uint64_t num_pages_ = 0;
};

}  // namespace pse
