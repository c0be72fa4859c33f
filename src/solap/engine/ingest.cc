// Streaming ingestion (docs/INGESTION.md): the engine's write path.
//
// IngestRows appends a batch of event rows under the exclusive epoch gate
// and incrementally maintains every cached structure instead of dropping
// them all (the pre-ingestion NotifyTableAppend behavior, kept for callers
// that mutate the table directly):
//
//   - formations whose new rows only introduce NEW cluster keys are
//     extended in place — the new sequences append at the tail of their
//     groups, so existing sids (and therefore every cached inverted list)
//     stay valid;
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
#include <map>
#include <unordered_set>
#include <utility>

#include "solap/common/failpoint.h"
#include "solap/cube/lattice.h"
#include "solap/engine/engine.h"
#include "solap/index/build_index.h"
#include "solap/seq/sequence_query_engine.h"

namespace solap {

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
  const RowId from_row = static_cast<RowId>(mutable_table_->num_rows());
  Status appended = mutable_table_->Append(rows);
  if (!appended.ok()) {
    wl.Abandon();  // validate-first Append left the table untouched
    return appended;
  }
  ScanStats local;
  local.ingested_events = rows.size();

  // Incrementally maintain (or conservatively invalidate) every cached
  // formation. The table rows are already committed either way — a failure
  // below only costs cached state, never correctness.
  FormationDeltas deltas;
  for (auto& [spec, set] : sequence_cache_.Entries()) {
    auto extended = TryExtendFormation(spec, set, from_row, &deltas, &local);
    if (extended.ok() && extended.value()) {
      // The set grew in place; re-insert so the governor charge tracks the
      // new ApproxBytes.
      sequence_cache_.Insert(spec, set);
    } else {
      sequence_cache_.Erase(spec);
      DropIndexCachesFor(*set);
      deltas.erase(set.get());
      ++local.formation_invalidations;
    }
  }
  PatchOrInvalidateCuboids(deltas, &local);

  span.Count("events", rows.size());
  span.Count("epoch", wl.committed_epoch());
  MergeStats(local);
  EnsureMerger();
  MaybeKickMerger();
  return Status::OK();
}

Result<bool> SOlapEngine::TryExtendFormation(
    const SequenceSpec& spec, const std::shared_ptr<SequenceGroupSet>& set,
    RowId from_row, FormationDeltas* deltas, ScanStats* stats) {
  // Bind the formation clauses exactly as SequenceQueryEngine::Build
  // does, so extension and rebuild classify rows identically.
  ExprPtr where;
  if (spec.where != nullptr) {
    SOLAP_ASSIGN_OR_RETURN(where,
                           spec.where->Bind(mutable_table_->schema(), nullptr));
  }
  std::vector<DimensionBinding> cluster_bindings;
  for (const LevelRef& r : spec.cluster_by) {
    SOLAP_ASSIGN_OR_RETURN(
        DimensionBinding b,
        DimensionBinding::MakeForTable(*mutable_table_, hierarchies_, r));
    cluster_bindings.push_back(std::move(b));
  }
  SOLAP_ASSIGN_OR_RETURN(int order_col,
                         mutable_table_->schema().RequireField(spec.sequence_by));
  const ValueType order_type =
      mutable_table_->schema().field(order_col).type;
  auto order_value = [&](RowId r) -> double {
    if (order_type == ValueType::kDouble) {
      return mutable_table_->DoubleAt(r, order_col);
    }
    return static_cast<double>(mutable_table_->Int64At(r, order_col));
  };

  // Every cluster key the formation already holds, read off each
  // sequence's first event (cluster values are functionally determined by
  // the cluster, so one row suffices).
  std::unordered_set<CellKey, CodeVecHash> existing;
  for (SequenceGroup& group : set->groups()) {
    const Sid n = static_cast<Sid>(group.num_sequences());
    CellKey ckey(cluster_bindings.size());
    for (Sid s = 0; s < n; ++s) {
      const RowId row = group.Rows(s).front();
      for (size_t i = 0; i < cluster_bindings.size(); ++i) {
        ckey[i] = cluster_bindings[i].CodeOf(*mutable_table_, row);
      }
      existing.insert(ckey);
    }
  }

  // Classify the new rows. Ordered map for deterministic sid assignment,
  // mirroring the fresh-formation path.
  std::map<CellKey, std::vector<RowId>> fresh_clusters;
  const size_t n_rows = mutable_table_->num_rows();
  CellKey ckey(cluster_bindings.size());
  for (RowId row = from_row; row < n_rows; ++row) {
    if (!retention_.Keep(*mutable_table_, row)) continue;
    if (where != nullptr && !where->EvalRow(*mutable_table_, row).AsBool()) {
      continue;
    }
    for (size_t i = 0; i < cluster_bindings.size(); ++i) {
      ckey[i] = cluster_bindings[i].CodeOf(*mutable_table_, row);
    }
    if (existing.count(ckey) != 0) return false;  // caller invalidates
    fresh_clusters[ckey].push_back(row);
  }

  // Pattern-invariant extension: all selected rows form brand-new
  // sequences, appended at the tail of their groups.
  const std::vector<DimensionBinding>& gb = set->global_bindings();
  std::unordered_map<size_t, Sid> old_counts;  // touched group -> old size
  CellKey gkey(gb.size());
  for (auto& [key, seq_rows] : fresh_clusters) {
    std::stable_sort(seq_rows.begin(), seq_rows.end(),
                     [&](RowId a, RowId b) {
                       double va = order_value(a), vb = order_value(b);
                       return spec.ascending ? va < vb : vb < va;
                     });
    for (size_t i = 0; i < gb.size(); ++i) {
      gkey[i] = gb[i].CodeOf(*mutable_table_, seq_rows.front());
    }
    SequenceGroup& group = set->GroupFor(gkey);
    // Identify the group by position (GroupFor may have just created it).
    const size_t gi = static_cast<size_t>(&group - set->groups().data());
    old_counts.emplace(gi, static_cast<Sid>(group.num_sequences()));
    group.AddSequence(seq_rows);
  }

  std::vector<GroupDelta>& group_deltas = (*deltas)[set.get()];
  for (const auto& [gi, old_count] : old_counts) {
    SequenceGroup& group = set->groups()[gi];
    group.InvalidateViews();  // views cover the old extent only
    group_deltas.push_back(GroupDelta{gi, old_count});

    // Delta-extend the group's cached complete indices; join-derived
    // filtered indices cannot be extended safely and are dropped.
    const GroupIndexCache* existing_cache = FindIndexCache(*set, gi);
    if (existing_cache == nullptr) continue;
    GroupIndexCache& cache = CacheFor(*set, gi);
    std::vector<std::shared_ptr<InvertedIndex>> keep;
    for (const auto& entry : cache.entries()) {
      if (entry->complete()) keep.push_back(entry);
    }
    cache.Clear();
    for (auto& entry : keep) {
      Status extended =
          AppendToIndexDelta(entry.get(), &group, *set, hierarchies_,
                             old_count, stats, &governor_);
      if (!extended.ok()) return extended;
      // A budget reject only loses the cached index — the next query
      // rebuilds it; the extension itself stands.
      if (!cache.Insert(std::move(entry)).ok()) break;
    }
  }
  std::sort(group_deltas.begin(), group_deltas.end(),
            [](const GroupDelta& a, const GroupDelta& b) {
              return a.group_idx < b.group_idx;
            });
  return true;
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
    if (!e.has_spec || !AppendPatchable(e.spec)) {
      invalidate();
      continue;
    }
    std::shared_ptr<SequenceGroupSet> set = sequence_cache_.Lookup(e.spec.seq);
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
      SOLAP_ASSIGN_OR_RETURN(QueryContext ctx, Prepare(e.spec, copy.get()));
      ctx.stats = stats;
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

void SOlapEngine::DropIndexCachesFor(const SequenceGroupSet& set) {
  const std::string prefix =
      std::to_string(reinterpret_cast<uintptr_t>(&set)) + ":";
  std::lock_guard<std::mutex> lock(index_caches_mu_);
  for (auto it = index_caches_.begin(); it != index_caches_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      it = index_caches_.erase(it);  // dtor refunds the governor charge
    } else {
      ++it;
    }
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
  // any future incremental extension). Cache Clear refunds the governor.
  sequence_cache_.Clear();
  {
    std::lock_guard<std::mutex> lock(index_caches_mu_);
    index_caches_.clear();
  }
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
      std::vector<std::shared_ptr<InvertedIndex>> entries = cache.entries();
      bool any_delta = false;
      for (const auto& entry : entries) {
        if (entry->has_delta()) any_delta = true;
      }
      if (!any_delta) continue;
      // Clear + re-insert keeps the governor charge exact (the fold can
      // change the containers' byte size).
      cache.Clear();
      for (auto& entry : entries) {
        if (entry->has_delta()) {
          entry->MergeDeltaIntoBase();
          ++merged;
        }
        if (!cache.Insert(std::move(entry)).ok()) break;
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
    for (const auto& entry : cache.entries()) {
      if (entry->has_delta()) {
        ++out.segments;
        out.bytes += entry->DeltaByteSize();
      }
    }
  }
  return out;
}

void SOlapEngine::EnsureMerger() {
  if (!options_.auto_delta_merge) return;
  std::lock_guard<std::mutex> lock(merge_mu_);
  if (merger_started_) return;
  merger_started_ = true;
  merger_ = std::thread([this] { MergerLoop(); });
}

void SOlapEngine::MaybeKickMerger() {
  if (!options_.auto_delta_merge) return;
  if (options_.delta_merge_bytes > 0 &&
      DeltaSnapshot().bytes <= options_.delta_merge_bytes) {
    return;
  }
  std::lock_guard<std::mutex> lock(merge_mu_);
  merge_kick_ = true;
  merge_cv_.notify_all();
}

void SOlapEngine::MergerLoop() {
  std::unique_lock<std::mutex> lk(merge_mu_);
  while (!merge_stop_) {
    if (options_.merge_interval_ms > 0) {
      merge_cv_.wait_for(lk,
                         std::chrono::milliseconds(options_.merge_interval_ms),
                         [&] { return merge_stop_ || merge_kick_; });
    } else {
      merge_cv_.wait(lk, [&] { return merge_stop_ || merge_kick_; });
    }
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
