// Columnar event database (the paper's Figure 1): typed columns with
// dictionary encoding for string dimensions.
#ifndef SOLAP_STORAGE_EVENT_TABLE_H_
#define SOLAP_STORAGE_EVENT_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "solap/common/status.h"
#include "solap/common/types.h"
#include "solap/storage/dictionary.h"
#include "solap/storage/schema.h"
#include "solap/storage/value.h"

namespace solap {

/// \brief The event database: a columnar fact table of events.
///
/// String columns are dictionary-encoded so that grouping, sequence symbols
/// and inverted-index keys all operate on dense Code values; numeric and
/// timestamp columns are stored raw. Rows are append-only, which is what the
/// paper's incremental-update scenario (§6) assumes: a new day of events is
/// appended, never mutated.
class EventTable {
 public:
  explicit EventTable(Schema schema);
  // A copy would share the dictionaries; PartitionRows is the one place
  // tables share them.
  EventTable(const EventTable&) = delete;
  EventTable& operator=(const EventTable&) = delete;
  EventTable(EventTable&&) = default;
  EventTable& operator=(EventTable&&) = default;

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }

  /// Appends one event. `values` must match the schema arity and each value
  /// must match (or be losslessly convertible to) the column type.
  Status AppendRow(const std::vector<Value>& values);

  /// Batch append (the streaming-ingestion entry point, docs/INGESTION.md):
  /// validates EVERY row against the schema before touching any column, so
  /// a bad row rejects the whole batch and the table is never left with a
  /// half-applied batch. A non-empty committed batch advances the table
  /// epoch by one; an empty batch is a no-op on the epoch. Not internally
  /// synchronized — the engine's EpochGate serializes writers against
  /// readers.
  Status Append(const std::vector<std::vector<Value>>& rows);

  /// Monotonic count of committed non-empty Append batches. Storage-level
  /// bookkeeping only; the query-visible epoch is the engine gate's.
  uint64_t epoch() const { return epoch_; }

  /// Values [from, size) of string column `col`'s dictionary in code order
  /// — the entries a replica whose dictionary has `from` entries must
  /// append (in this order) to assign the same codes this table did.
  std::vector<std::string> DictionaryTail(int col, size_t from) const;

  /// Applies a dictionary tail: value `values[i]` must end up under code
  /// `from + i` in string column `col`'s dictionary. Entries below the
  /// current size are verified (idempotent retries re-send overlap);
  /// entries at the boundary are appended. InvalidArgument on any
  /// positional mismatch — divergent replicas must fail loudly, not
  /// mis-merge codes.
  Status SyncDictionary(int col, size_t from,
                        const std::vector<std::string>& values);

  /// Value of column `col` at `row` (strings are decoded).
  Value GetValue(RowId row, int col) const;

  /// Dictionary code of string column `col` at `row`.
  Code CodeAt(RowId row, int col) const { return code_cols_[col][row]; }

  /// Raw int64 of an int64/timestamp column.
  int64_t Int64At(RowId row, int col) const { return int_cols_[col][row]; }

  /// Raw double of a double column.
  double DoubleAt(RowId row, int col) const { return dbl_cols_[col][row]; }

  /// Splits the rows into `num_shards` tables that share this table's
  /// schema and its dictionaries themselves: row r goes to slice
  /// `shard_of(r)`, keeping source order within each slice. Codes (and
  /// therefore group keys, symbols and inverted-index keys) are the same
  /// across slices and with this table, and a value this table's Append
  /// codes is at once known to every slice. Used by the sharded engine
  /// (engine/sharded_engine.h) and the shard server (tools/shard_main.cc).
  std::vector<std::unique_ptr<EventTable>> PartitionRows(
      size_t num_shards, const std::function<size_t(RowId)>& shard_of) const;

  /// Copies the coded values of rows [from, num_rows()) into the slices
  /// PartitionRows made, row r into `slices[shard_of(r) % slices.size()]`,
  /// in source order. PartitionRows fills its slices with it, and the
  /// sharded engine routes each committed batch with it. Cannot fail: the
  /// rows were validated when this table took them, and the slices share
  /// its dictionaries.
  void CopyRowsInto(RowId from,
                    const std::vector<std::unique_ptr<EventTable>>& slices,
                    const std::function<size_t(RowId)>& shard_of) const;

  /// Dictionary of string column `col` (nullptr for non-string columns).
  const Dictionary* dictionary(int col) const {
    return dicts_[col] ? dicts_[col].get() : nullptr;
  }

 private:
  friend class TableIo;  // binary persistence (storage/io.cc)

  /// Schema check shared by AppendRow and Append's validate-first pass.
  Status ValidateRow(const std::vector<Value>& values) const;

  Schema schema_;
  size_t num_rows_ = 0;
  uint64_t epoch_ = 0;
  // Per-column storage; only the vector matching the column type is used.
  std::vector<std::vector<Code>> code_cols_;
  std::vector<std::vector<int64_t>> int_cols_;
  std::vector<std::vector<double>> dbl_cols_;
  // Shared with the slices PartitionRows made (and theirs with this one).
  std::vector<std::shared_ptr<Dictionary>> dicts_;
};

}  // namespace solap

#endif  // SOLAP_STORAGE_EVENT_TABLE_H_
