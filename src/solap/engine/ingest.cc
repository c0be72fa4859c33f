// Streaming ingestion (docs/INGESTION.md) and incremental update (paper
// §6): the engine's one write path.
//
// Every append — IngestRows (table rows), NotifyTableAppend (rows appended
// to the table by its owner: the sharded facade's shards and fallback) and
// AppendRawSequences (raw sequences) — ends in MaintainCaches under the
// exclusive epoch gate, which incrementally maintains every cached
// structure instead of dropping them all:
//
//   - formations whose new rows only introduce NEW cluster keys are
//     extended in place by forming just those rows
//     (SequenceQueryEngine::Extend, which Build runs over an empty set) —
//     the new sequences append at the tail of their groups, so existing
//     sids (and therefore every cached inverted list) stay valid;
//   - cached complete indices of touched groups get the appended sids
//     appended to their lists in place (AppendToIndex; new sids exceed
//     every cached one, so the lists stay sorted);
//   - cached cuboids whose spec is AppendPatchable (cube/lattice.h) are
//     delta-patched by counter-scanning only the appended sid ranges;
//     everything else is invalidated.
//
// A batch that maps any row onto an EXISTING cluster key would splice
// events into the middle of a formed sequence, shifting its symbol
// positions — that formation (and its dependents) is conservatively
// invalidated and rebuilt lazily on next use.
#include <algorithm>
#include <utility>

#include "solap/common/failpoint.h"
#include "solap/cube/lattice.h"
#include "solap/engine/engine.h"
#include "solap/index/build_index.h"
#include "solap/seq/sequence_query_engine.h"

namespace solap {

Status SOlapEngine::IngestRows(const std::vector<std::vector<Value>>& rows,
                               TraceContext* trace, uint64_t* epoch_out) {
  if (mutable_table_ == nullptr) {
    return Status::InvalidArgument(
        "IngestRows requires the mutable-table constructor");
  }
  TraceSpan span(trace, "ingest.append");
  SOLAP_FAILPOINT("ingest.append");
  EpochGate::WriteLock wl(gate_);
  if (rows.empty()) {
    wl.Abandon();
    if (epoch_out != nullptr) *epoch_out = wl.committed_epoch() - 2;
    return Status::OK();
  }
  Status appended = mutable_table_->Append(rows);
  if (!appended.ok()) {
    wl.Abandon();  // validate-first Append left the table untouched
    return appended;
  }
  // The table rows are committed; maintaining the caches below only costs
  // cached state on failure, never correctness.
  ScanStats local;
  local.ingested_events = rows.size();
  CatchUpFormations(&local);
  span.Count("events", rows.size());
  span.Count("epoch", wl.committed_epoch());
  if (epoch_out != nullptr) *epoch_out = wl.committed_epoch();
  MergeStats(local);
  return Status::OK();
}

void SOlapEngine::NotifyTableAppend(TraceContext* trace) {
  TraceSpan span(trace, "ingest.append");
  span.Note("scope", "catch_up");
  EpochGate::WriteLock wl(gate_);
  ScanStats local;
  CatchUpFormations(&local);
  MergeStats(local);
}

Status SOlapEngine::AppendRawSequences(
    size_t group_idx, const std::vector<std::vector<Code>>& sequences) {
  if (raw_groups_ == nullptr) {
    return Status::InvalidArgument(
        "AppendRawSequences applies to raw-group engines; table-backed "
        "engines append through IngestRows");
  }
  if (group_idx >= raw_groups_->groups().size()) {
    return Status::OutOfRange("no sequence group " +
                              std::to_string(group_idx));
  }
  EpochGate::WriteLock wl(gate_);
  if (sequences.empty()) {
    wl.Abandon();
    return Status::OK();
  }
  SequenceGroup& group = raw_groups_->groups()[group_idx];
  const Sid old_count = static_cast<Sid>(group.num_sequences());
  for (const std::vector<Code>& seq : sequences) group.AddSequence(seq);
  ScanStats local;
  MaintainCaches({{raw_groups_.get(), {GroupDelta{group_idx, old_count}}}},
                 &local);
  MergeStats(local);
  return Status::OK();
}

void SOlapEngine::CatchUpFormations(ScanStats* stats) {
  SequenceQueryEngine sqe(hierarchies_);
  FormationDeltas deltas;
  // The snapshot keeps every set alive until MaintainCaches is done.
  const auto entries = sequence_cache_.Entries();
  for (const auto& [spec, set] : entries) {
    // Erasing a base earlier in this walk evicted its derived entries.
    if (!sequence_cache_.Holds(*set)) continue;
    std::vector<GroupDelta> touched;
    auto extended = sqe.Extend(*table_, spec, &retention_, *set, &touched);
    if (!extended.ok() || !extended.value()) {
      sequence_cache_.Erase(spec);
      ++stats->formation_invalidations;
    } else {
      deltas[set.get()] = std::move(touched);
      // Re-charge at the new ApproxBytes; a refused set leaves the cache.
      sequence_cache_.Refresh(spec, *set);
    }
  }
  // A set that left the cache in the walk (refused, or derived from an
  // erased base) took its index caches along, and the repository finds
  // formations by spec, so its deltas reach nothing.
  MaintainCaches(deltas, stats);
}

void SOlapEngine::MaintainCaches(const FormationDeltas& deltas,
                                 ScanStats* stats) {
  for (const auto& [set_ptr, group_deltas] : deltas) {
    SequenceGroupSet& set = *set_ptr;
    std::shared_ptr<FormationIndexCaches> caches = IndexCachesOf(set);
    for (const GroupDelta& d : group_deltas) {
      SequenceGroup& group = set.groups()[d.group_idx];
      group.InvalidateViews();  // views cover the old extent only
      // Extend the group's cached complete indices in place; join-derived
      // filtered indices cannot be extended safely and are dropped. A
      // failed extension or budget reject drops the rest of the group's
      // cache — the next query rebuilds it; the append itself stands.
      std::shared_ptr<GroupIndexCache> cache = caches->Find(d.group_idx);
      if (cache == nullptr) continue;
      std::vector<std::shared_ptr<InvertedIndex>> keep;
      for (const auto& entry : cache->entries()) {
        if (entry->complete()) keep.push_back(entry);
      }
      cache->Clear();
      for (auto& entry : keep) {
        if (!AppendToIndex(entry.get(), &group, set, hierarchies_,
                           d.old_count, stats, &governor_)
                 .ok() ||
            !cache->Insert(std::move(entry)).ok()) {
          break;
        }
      }
    }
  }
  PatchOrInvalidateCuboids(deltas, stats);
}

void SOlapEngine::PatchOrInvalidateCuboids(const FormationDeltas& deltas,
                                           ScanStats* stats) {
  for (const CuboidRepository::Entry& e : repository_.Entries()) {
    auto invalidate = [&] {
      repository_.Erase(e.key);
      ++stats->stale_cuboid_invalidations;
    };
    if (!AppendPatchable(e.spec)) {
      invalidate();
      continue;
    }
    std::shared_ptr<SequenceGroupSet> set = FormedGroups(e.spec.seq);
    if (set == nullptr) {  // its formation was invalidated above
      invalidate();
      continue;
    }
    auto dit = deltas.find(set.get());
    if (dit == deltas.end() || dit->second.empty()) {
      // The batch contributed nothing to this formation (rows filtered out
      // by WHERE/retention) — the cached cuboid is still exact.
      continue;
    }
    auto patch = [&]() -> Status {
      auto copy = std::make_shared<SCuboid>(*e.cuboid);
      SOLAP_ASSIGN_OR_RETURN(QueryContext ctx,
                             Prepare(e.spec, copy.get(), stats));
      for (size_t gi : ctx.selected_groups) {
        const GroupDelta* gd = nullptr;
        for (const GroupDelta& d : dit->second) {
          if (d.group_idx == gi) {
            gd = &d;
            break;
          }
        }
        if (gd == nullptr) continue;  // group untouched by this batch
        SequenceGroup& group = ctx.groups->groups()[gi];
        SOLAP_ASSIGN_OR_RETURN(
            BoundPattern bp,
            BoundPattern::Bind(&ctx.tmpl, &group, *ctx.groups, hierarchies_,
                               ctx.spec->predicate, ctx.spec->placeholders));
        SOLAP_RETURN_NOT_OK(CounterScanRange(
            ctx, group, bp, gd->old_count,
            static_cast<Sid>(group.num_sequences()), copy.get(), stats));
      }
      SOLAP_RETURN_NOT_OK(
          LabelCells(copy.get(), *set, hierarchies_, e.spec.dims));
      repository_.Replace(e.key, copy);
      ++stats->cuboid_patches;
      return Status::OK();
    };
    if (!patch().ok()) invalidate();
  }
}

Status SOlapEngine::EvictBefore(const std::string& order_attr,
                                int64_t cutoff) {
  if (table_ == nullptr) {
    return Status::InvalidArgument(
        "EvictBefore applies to table-backed engines");
  }
  SOLAP_ASSIGN_OR_RETURN(int col, table_->schema().RequireField(order_attr));
  const ValueType type = table_->schema().field(col).type;
  if (type != ValueType::kInt64 && type != ValueType::kTimestamp) {
    return Status::InvalidArgument("retention attribute '" + order_attr +
                                   "' must be int64 or timestamp");
  }
  EpochGate::WriteLock wl(gate_);
  if (retention_.col == col) {
    // Monotone: time only moves forward; a lower cutoff is a no-op.
    retention_.min_inclusive = std::max(retention_.min_inclusive, cutoff);
  } else {
    retention_.col = col;
    retention_.min_inclusive = cutoff;
  }
  // Formed groups embed evicted rows; rebuild everything lazily under the
  // new window (fresh formations apply retention_, so rebuilds agree with
  // any future incremental extension). Cache Clear refunds the governor,
  // index caches included.
  sequence_cache_.Clear();
  repository_.Clear();
  return Status::OK();
}

Status SOlapEngine::SyncTableDictionary(int col, size_t from,
                                        const std::vector<std::string>& values) {
  if (mutable_table_ == nullptr) {
    return Status::InvalidArgument(
        "SyncTableDictionary requires the mutable-table constructor");
  }
  EpochGate::WriteLock wl(gate_);
  // Growing a dictionary tail changes no query answer (no row references
  // the new codes yet), so the epoch must not advance.
  wl.Abandon();
  return mutable_table_->SyncDictionary(col, from, values);
}

}  // namespace solap
