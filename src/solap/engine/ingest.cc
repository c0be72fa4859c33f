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
//   - cached complete indices of touched groups grow a DELTA segment
//     (inverted_index.h) covering just the appended sids; the background
//     merger folds deltas into base containers off the ingest path;
//   - cached cuboids whose spec is AppendPatchable (cube/lattice.h) are
//     delta-patched by counter-scanning only the appended sid ranges;
//     everything else is invalidated.
//
// A batch that maps any row onto an EXISTING cluster key would splice
// events into the middle of a formed sequence, shifting its symbol
// positions — that formation (and its dependents) is conservatively
// invalidated and rebuilt lazily on next use.
#include <algorithm>
#include <chrono>
#include <utility>

#include "solap/common/failpoint.h"
#include "solap/cube/lattice.h"
#include "solap/engine/engine.h"
#include "solap/index/build_index.h"
#include "solap/seq/sequence_query_engine.h"

namespace solap {

namespace {

// The background merger wakes at least this often while deltas exist.
constexpr std::chrono::milliseconds kMergeInterval{200};

}  // namespace

Status SOlapEngine::IngestRows(const std::vector<std::vector<Value>>& rows,
                               TraceContext* trace) {
  if (mutable_table_ == nullptr) {
    return Status::InvalidArgument(
        "IngestRows requires the mutable-table constructor");
  }
  TraceSpan span(trace, "ingest.append");
  SOLAP_FAILPOINT("ingest.append");
  EpochGate::WriteLock wl(gate_);
  if (rows.empty()) {
    wl.Abandon();
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
  // The snapshot keeps every set alive until the deltas are pruned below.
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
  // Sets that left the cache in the walk (invalidated, refused, or derived
  // from an erased base) keep no deltas; the release hook dropped their
  // index caches.
  std::erase_if(deltas, [&](const auto& d) {
    return !sequence_cache_.Holds(*d.first);
  });
  MaintainCaches(deltas, stats);
}

void SOlapEngine::MaintainCaches(const FormationDeltas& deltas,
                                 ScanStats* stats) {
  for (const auto& [set_ptr, group_deltas] : deltas) {
    SequenceGroupSet& set = *set_ptr;
    for (const GroupDelta& d : group_deltas) {
      SequenceGroup& group = set.groups()[d.group_idx];
      group.InvalidateViews();  // views cover the old extent only
      // Delta-extend the group's cached complete indices; join-derived
      // filtered indices cannot be extended safely and are dropped. A
      // failed extension or budget reject drops the rest of the group's
      // cache — the next query rebuilds it; the append itself stands.
      if (FindIndexCache(set, d.group_idx) == nullptr) continue;
      std::shared_ptr<GroupIndexCache> cache = CacheFor(set, d.group_idx);
      std::vector<std::shared_ptr<InvertedIndex>> keep;
      for (const auto& entry : cache->entries()) {
        if (entry->complete()) keep.push_back(entry);
      }
      cache->Clear();
      for (auto& entry : keep) {
        if (!AppendToIndexDelta(entry.get(), &group, set, hierarchies_,
                                d.old_count, stats, &governor_)
                 .ok() ||
            !cache->Insert(std::move(entry)).ok()) {
          break;
        }
      }
    }
  }
  PatchOrInvalidateCuboids(deltas, stats);
  KickMerger();
}

void SOlapEngine::PatchOrInvalidateCuboids(const FormationDeltas& deltas,
                                           ScanStats* stats) {
  // Called under the exclusive gate (epoch odd); stamp patched entries with
  // the epoch readers will observe after this writer commits.
  const uint64_t commit_epoch = gate_.epoch() + 1;
  for (const CuboidRepository::Snapshot& e : repository_.Entries()) {
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
      repository_.Replace(e.key, e.cuboid, commit_epoch);
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
      repository_.Replace(e.key, copy, commit_epoch);
      ++stats->cuboid_patches;
      return Status::OK();
    };
    if (!patch().ok()) invalidate();
  }
}

void SOlapEngine::DropIndexCachesFor(uint64_t set_id) {
  // The last holder's release refunds the governor charge.
  std::lock_guard<std::mutex> lock(index_caches_mu_);
  index_caches_.erase(index_caches_.lower_bound({set_id, 0}),
                      index_caches_.lower_bound({set_id + 1, 0}));
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
  // and its release hook drops the index caches.
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

Status SOlapEngine::MergeDeltasNow(TraceContext* trace) {
  TraceSpan span(trace, "ingest.merge");
  SOLAP_FAILPOINT("ingest.merge");
  // Exclusive gate: readers see either all lists two-segment or all merged
  // — never a half-folded index. Logical content is unchanged, so the
  // epoch must not advance.
  EpochGate::WriteLock wl(gate_);
  wl.Abandon();
  size_t merged = 0;
  {
    std::lock_guard<std::mutex> lock(index_caches_mu_);
    for (auto& [key, cache] : index_caches_) {
      std::vector<std::shared_ptr<InvertedIndex>> entries = cache->entries();
      bool any_delta = false;
      for (const auto& entry : entries) {
        if (entry->has_delta()) any_delta = true;
      }
      if (!any_delta) continue;
      // Clear + re-insert keeps the governor charge exact (the fold can
      // change the containers' byte size).
      cache->Clear();
      for (auto& entry : entries) {
        if (entry->has_delta()) {
          entry->MergeDeltaIntoBase();
          ++merged;
        }
        if (!cache->Insert(std::move(entry)).ok()) break;
      }
    }
  }
  span.Count("segments", merged);
  if (merged > 0) {
    ScanStats local;
    local.delta_merges = 1;
    MergeStats(local);
  }
  return Status::OK();
}

SOlapEngine::DeltaStats SOlapEngine::DeltaSnapshot() const {
  DeltaStats out;
  std::lock_guard<std::mutex> lock(index_caches_mu_);
  for (const auto& [key, cache] : index_caches_) {
    for (const auto& entry : cache->entries()) {
      if (entry->has_delta()) {
        ++out.segments;
        out.bytes += entry->DeltaByteSize();
      }
    }
  }
  return out;
}

void SOlapEngine::KickMerger() {
  if (!options_.auto_delta_merge) return;
  const bool over_threshold = options_.delta_merge_bytes == 0 ||
                              DeltaSnapshot().bytes > options_.delta_merge_bytes;
  std::lock_guard<std::mutex> lock(merge_mu_);
  if (!merger_started_) {
    merger_started_ = true;
    merger_ = std::thread([this] { MergerLoop(); });
  }
  if (over_threshold) {
    merge_kick_ = true;
    merge_cv_.notify_all();
  }
}

void SOlapEngine::MergerLoop() {
  std::unique_lock<std::mutex> lk(merge_mu_);
  while (!merge_stop_) {
    merge_cv_.wait_for(lk, kMergeInterval,
                       [&] { return merge_stop_ || merge_kick_; });
    if (merge_stop_) break;
    merge_kick_ = false;
    lk.unlock();
    // Best-effort: a failpoint or injected fault just skips this cycle.
    (void)MergeDeltasNow();
    lk.lock();
  }
}

void SOlapEngine::StopMerger() {
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    merge_stop_ = true;
  }
  merge_cv_.notify_all();
  if (merger_.joinable()) merger_.join();
}

}  // namespace solap
