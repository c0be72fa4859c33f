// Sequence groups: the output of S-cuboid formation steps 1-4 (paper §3.2).
//
// A SequenceGroup holds the data sequences sharing one combination of global
// dimension values (e.g. fare-group="regular", day="2007-12-25" — Fig. 8).
// Sequences are stored in CSR form: a flat array of event row-ids (or raw
// symbol codes) plus per-sequence offsets. Sids are positions within the
// group, matching the paper's per-group inverted lists.
#ifndef SOLAP_SEQ_SEQUENCE_GROUP_H_
#define SOLAP_SEQ_SEQUENCE_GROUP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "solap/common/status.h"
#include "solap/common/types.h"
#include "solap/seq/dimension.h"
#include "solap/storage/event_table.h"

namespace solap {

/// \brief One group of data sequences plus lazily computed symbol views.
///
/// A *symbol view* is the per-position code of every sequence element for
/// one (attribute, level) pair — the alphabet pattern matching runs on.
/// Views are cached because every query over the same group at the same
/// abstraction level reuses them.
class SequenceGroup {
 public:
  /// Creates a table-backed group.
  explicit SequenceGroup(const EventTable* table) : table_(table) {}
  /// Creates a raw group whose sequences are base-code streams of a single
  /// attribute dictionary-encoded by the owning SequenceGroupSet.
  SequenceGroup() = default;

  const CellKey& key() const { return key_; }
  void set_key(CellKey key) { key_ = std::move(key); }

  size_t num_sequences() const { return offsets_.size() - 1; }
  uint32_t length(Sid s) const { return offsets_[s + 1] - offsets_[s]; }
  size_t total_events() const { return data_.size(); }
  const EventTable* table() const { return table_; }

  /// Event rows of sequence `s` (table-backed groups only).
  std::span<const RowId> Rows(Sid s) const {
    return {data_.data() + offsets_[s], length(s)};
  }

  /// Appends one sequence; `items` are event row-ids (table-backed) or
  /// base codes (raw). Returns the new sequence's sid.
  Sid AddSequence(std::span<const uint32_t> items);

  /// Reserves room for `sequences` more sequences of `events` items in all.
  void Reserve(size_t sequences, size_t events) {
    offsets_.reserve(offsets_.size() + sequences);
    data_.reserve(data_.size() + events);
  }

  /// Symbol view for `dim`: flat per-position codes aligned with the
  /// group's offsets. Computed once per (attr, level) and cached; safe to
  /// call from concurrent queries (the returned reference stays valid —
  /// views are never dropped while queries run).
  const std::vector<Code>& ViewFor(const DimensionBinding& dim);

  /// Symbols of sequence `s` within a view returned by ViewFor.
  std::span<const Code> Symbols(const std::vector<Code>& view, Sid s) const {
    return {view.data() + offsets_[s], length(s)};
  }

  /// Drops cached views (called when new sequences are appended).
  void InvalidateViews() { views_.clear(); }

  /// Sids ordered by the int64 column `order_col` of their first event and
  /// of their last event, in sequence order (descending when the group was
  /// formed descending). A window on that column keeps a prefix of
  /// `by_first` and a suffix of `by_last` at most, so a derivation
  /// binary-searches these instead of visiting every sequence.
  struct EndpointOrder {
    std::vector<Sid> by_first;
    std::vector<Sid> by_last;
  };
  /// Computed on first use and recomputed once sequences were appended;
  /// safe under concurrent queries. Not charged, like the symbol views.
  std::shared_ptr<const EndpointOrder> EndpointOrderFor(int order_col,
                                                        bool ascending);

  const std::vector<uint32_t>& offsets() const { return offsets_; }

 private:
  const EventTable* table_ = nullptr;
  CellKey key_;
  std::vector<uint32_t> offsets_{0};
  std::vector<uint32_t> data_;  // row-ids or base codes
  std::unordered_map<std::string, std::vector<Code>> views_;
  std::shared_ptr<const EndpointOrder> endpoint_order_;
  // Guards lazy view (and endpoint order) materialization under concurrent
  // queries. Held in a shared_ptr so groups stay movable/copyable (the lock
  // is per-identity, and groups are never copied while queries run).
  std::shared_ptr<std::mutex> views_mu_ = std::make_shared<std::mutex>();
};

/// \brief The full result of sequence formation: all groups plus the
/// metadata needed to bind pattern dimensions and decode group keys.
class SequenceGroupSet {
 public:
  /// Table-backed set.
  SequenceGroupSet(const EventTable* table, std::vector<LevelRef> global_dims,
                   std::vector<DimensionBinding> global_bindings)
      : table_(table),
        global_dims_(std::move(global_dims)),
        global_bindings_(std::move(global_bindings)) {}

  /// Raw set over a single symbol attribute (synthetic workloads): the set
  /// owns the base dictionary for `raw_attr`.
  explicit SequenceGroupSet(std::string raw_attr)
      : raw_attr_(std::move(raw_attr)) {}

  SequenceGroupSet(const SequenceGroupSet&) = delete;
  SequenceGroupSet& operator=(const SequenceGroupSet&) = delete;

  /// Process-wide serial of this set, never reused: the engine keys its
  /// per-group index caches by it, so a set allocated where a freed one
  /// lived can never pick up the freed set's indices.
  uint64_t id() const { return id_; }

  bool is_raw() const { return table_ == nullptr; }
  const EventTable* table() const { return table_; }
  const std::string& raw_attr() const { return raw_attr_; }
  Dictionary& raw_dictionary() { return raw_dict_; }
  const Dictionary& raw_dictionary() const { return raw_dict_; }

  const std::vector<LevelRef>& global_dims() const { return global_dims_; }
  const std::vector<DimensionBinding>& global_bindings() const {
    return global_bindings_;
  }

  std::vector<SequenceGroup>& groups() { return groups_; }
  const std::vector<SequenceGroup>& groups() const { return groups_; }

  /// Group with key `key`, creating it if absent.
  SequenceGroup& GroupFor(const CellKey& key);

  size_t total_sequences() const;

  /// Table rows [0, formed_rows()) this set has been formed from: set by
  /// formation, advanced by each incremental extension, so a catch-up
  /// after an append scans only the rows past it (and never twice).
  size_t formed_rows() const { return formed_rows_; }
  void set_formed_rows(size_t rows) { formed_rows_ = rows; }

  /// Approximate resident footprint of the formed groups (the objects, their
  /// offset and data arrays; lazily materialized views are excluded as they
  /// come and go).
  /// Charged to the engine's MemoryGovernor when the set enters the
  /// sequence cache.
  size_t ApproxBytes() const;

  /// Human-readable labels of a group key, one per global dimension.
  std::vector<std::string> KeyLabels(const CellKey& key) const;

  /// Binds `ref` as a pattern/matching dimension against this set
  /// (table-backed or raw as appropriate).
  Result<DimensionBinding> BindDimension(const HierarchyRegistry* reg,
                                         const LevelRef& ref) const;

 private:
  const EventTable* table_ = nullptr;
  std::string raw_attr_;
  Dictionary raw_dict_;
  std::vector<LevelRef> global_dims_;
  std::vector<DimensionBinding> global_bindings_;
  std::vector<SequenceGroup> groups_;
  std::unordered_map<CellKey, size_t, CodeVecHash> group_index_;
  size_t formed_rows_ = 0;
  const uint64_t id_ = NextId();

  static uint64_t NextId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
};

}  // namespace solap

#endif  // SOLAP_SEQ_SEQUENCE_GROUP_H_
