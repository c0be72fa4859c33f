#include "solap/engine/sharded_engine.h"

#include <algorithm>
#include <new>
#include <thread>
#include <utility>

#include "solap/cube/partial_merge.h"
#include "solap/engine/remote_shard.h"
#include "solap/engine/shard_partition.h"

namespace solap {

ShardedEngine::ShardedEngine(const EventTable* table,
                             const HierarchyRegistry* hierarchies,
                             EngineOptions options)
    : table_(table), hierarchies_(hierarchies), options_(std::move(options)) {
  BuildShards();
}

ShardedEngine::ShardedEngine(EventTable* table,
                             const HierarchyRegistry* hierarchies,
                             EngineOptions options)
    : table_(table),
      mutable_table_(table),
      hierarchies_(hierarchies),
      options_(std::move(options)) {
  BuildShards();
}

ShardedEngine::ShardedEngine(std::shared_ptr<SequenceGroupSet> raw_groups,
                             const HierarchyRegistry* hierarchies,
                             EngineOptions options)
    : raw_groups_(std::move(raw_groups)),
      hierarchies_(hierarchies),
      options_(std::move(options)) {
  BuildShards();
}

ShardedEngine::ShardedEngine(SOlapEngine* borrowed)
    : hierarchies_(borrowed->hierarchies()), shards_{borrowed} {}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::BuildShards() {
  size_t n = std::max<size_t>(1, options_.shards);
  if (table_ != nullptr) {
    // Resolve the shard-by column; an unusable one degrades to one shard
    // rather than failing construction (the engine stays correct, just
    // monolithic).
    shard_col_ = ResolveShardColumn(*table_, options_.shard_by);
    shard_attr_ =
        shard_col_ >= 0 ? table_->schema().field(shard_col_).name : "";
    if (shard_col_ < 0) n = 1;
  }

  EngineOptions shard_opts = options_;
  shard_opts.shards = 1;
  if (n == 1) {
    // Mutable overload: the single executor gets the writable table so its
    // streaming write path works through plain delegation.
    if (mutable_table_ != nullptr) {
      AddShard(std::make_unique<SOlapEngine>(mutable_table_, hierarchies_,
                                             shard_opts));
    } else if (table_ != nullptr) {
      AddShard(std::make_unique<SOlapEngine>(table_, hierarchies_, shard_opts));
    } else {
      AddShard(std::make_unique<SOlapEngine>(raw_groups_, hierarchies_,
                                             shard_opts));
    }
    return;
  }

  // Per-shard executors run serially (the scatter is the parallelism) with
  // an even split of the memory budget; merged results cache in the facade
  // repository, so shard-level cuboid caching is off.
  shard_opts.exec_threads = 1;
  shard_opts.cb_threads = 1;
  shard_opts.repository_capacity_bytes = 0;
  shard_opts.memory_budget_bytes = options_.memory_budget_bytes / n;
  repository_ =
      std::make_unique<CuboidRepository>(options_.repository_capacity_bytes);

  if (table_ != nullptr) {
    shard_tables_ = table_->PartitionRows(n, [this, n](RowId r) {
      return ShardOfCode(table_->CodeAt(r, shard_col_), n);
    });
    for (size_t s = 0; s < n; ++s) {
      AddShard(std::make_unique<SOlapEngine>(shard_tables_[s].get(),
                                             hierarchies_, shard_opts));
    }
    return;
  }

  // Raw groups: split every group into n contiguous sid blocks. Every group
  // exists in every shard (possibly empty) and in source order, so group
  // ordinals line up across shards and with the source set.
  std::vector<std::shared_ptr<SequenceGroupSet>> shard_groups;
  for (size_t s = 0; s < n; ++s) {
    auto set = std::make_shared<SequenceGroupSet>(raw_groups_->raw_attr());
    set->raw_dictionary() = raw_groups_->raw_dictionary();
    shard_groups.push_back(std::move(set));
  }
  for (const SequenceGroup& src : raw_groups_->groups()) {
    const size_t m = src.num_sequences();
    for (size_t s = 0; s < n; ++s) {
      SequenceGroup& dst = shard_groups[s]->GroupFor(src.key());
      const size_t begin = m * s / n;
      const size_t end = m * (s + 1) / n;
      for (size_t sid = begin; sid < end; ++sid) {
        dst.AddSequence(src.Rows(static_cast<Sid>(sid)));
      }
    }
  }
  for (size_t s = 0; s < n; ++s) {
    AddShard(std::make_unique<SOlapEngine>(shard_groups[s], hierarchies_,
                                           shard_opts));
  }
}

void ShardedEngine::AddShard(std::unique_ptr<SOlapEngine> shard) {
  shards_.push_back(shard.get());
  owned_shards_.push_back(std::move(shard));
}

ThreadPool* ShardedEngine::ScatterPool() {
  std::lock_guard<std::mutex> lock(scatter_pool_mu_);
  if (!scatter_pool_created_) {
    scatter_pool_created_ = true;
    const size_t hw =
        std::max<size_t>(std::thread::hardware_concurrency(), 1);
    size_t t = options_.exec_threads == 0 ? hw : options_.exec_threads;
    t = std::min(t, shards_.size());
    if (t > 1) scatter_pool_ = std::make_unique<ThreadPool>(t);
  }
  return scatter_pool_.get();
}

SOlapEngine* ShardedEngine::Monolith() {
  if (shards_.size() == 1) return shards_[0];
  std::lock_guard<std::mutex> lock(fallback_mu_);
  if (!fallback_) {
    EngineOptions opts = options_;
    opts.shards = 1;
    fallback_ =
        table_ != nullptr
            ? std::make_unique<SOlapEngine>(table_, hierarchies_, opts)
            : std::make_unique<SOlapEngine>(raw_groups_, hierarchies_, opts);
  }
  return fallback_.get();
}

Status ShardedEngine::EnableRemoteScatter(
    const std::vector<ShardEndpoint>& endpoints, RemoteShardOptions rpc,
    DegradePolicy policy, bool local_fallback, MetricsRegistry* metrics) {
  if (shards_.size() == 1 || endpoints.size() != shards_.size()) {
    return Status::InvalidArgument(
        "remote scatter requires a sharded (shards > 1) engine and one "
        "endpoint per shard: " +
        std::to_string(endpoints.size()) + " endpoints for " +
        std::to_string(shards_.size()) + " shards");
  }
  remote_clients_.clear();
  remote_clients_.reserve(endpoints.size());
  for (size_t i = 0; i < endpoints.size(); ++i) {
    remote_clients_.push_back(
        std::make_unique<RemoteShardClient>(i, endpoints[i], rpc, metrics));
  }
  shard_healthy_ = std::make_unique<std::atomic<bool>[]>(endpoints.size());
  for (size_t i = 0; i < endpoints.size(); ++i) {
    shard_healthy_[i].store(true, std::memory_order_relaxed);
  }
  degrade_policy_ = policy;
  remote_local_fallback_ = local_fallback;
  return Status::OK();
}

void ShardedEngine::SetShardHealthy(size_t i, bool healthy) {
  if (shard_healthy_ != nullptr && i < remote_clients_.size()) {
    shard_healthy_[i].store(healthy, std::memory_order_relaxed);
  }
}

bool ShardedEngine::ShardHealthy(size_t i) const {
  return shard_healthy_ == nullptr || i >= remote_clients_.size() ||
         shard_healthy_[i].load(std::memory_order_relaxed);
}

bool ShardedEngine::Shardable(const CuboidSpec& spec) const {
  // One shard, or raw mode (the sequence is the unit): always.
  if (shards_.size() == 1 || table_ == nullptr) return true;
  for (const LevelRef& ref : spec.seq.cluster_by) {
    if (ref.attr != shard_attr_) continue;
    const ConceptHierarchy* h =
        hierarchies_ != nullptr ? hierarchies_->Find(ref.attr) : nullptr;
    // No hierarchy = a single (base) level; otherwise level 0 is base.
    if (h == nullptr || h->LevelIndex(ref.level) == 0) return true;
  }
  return false;
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::Execute(
    const CuboidSpec& spec) {
  return Execute(spec, options_.default_strategy, ExecControl{});
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::Execute(
    const CuboidSpec& spec, ExecStrategy strategy) {
  return Execute(spec, strategy, ExecControl{});
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::Execute(
    const CuboidSpec& spec, ExecStrategy strategy,
    const ExecControl& control) {
  if (shards_.size() == 1) return shards_[0]->Execute(spec, strategy, control);

  // Facade snapshot: multi-shard mutations (IngestRows, EvictBefore) hold
  // this gate exclusively, so a scattered execution sees every shard at one
  // consistent facade epoch.
  EpochGate::ReadLock rl(gate_);
  if (control.epoch_out != nullptr) *control.epoch_out = rl.epoch();
  ScanStats local;
  auto run = [&]() -> Result<std::shared_ptr<const SCuboid>> {
    if (Shardable(spec)) {
      try {
        return ExecuteScatter(spec, strategy, control, &local);
      } catch (const std::bad_alloc&) {
        return Status::ResourceExhausted(
            "allocation failed while gathering shard partials");
      }
    }
    ExecControl sub = control;
    sub.stats_out = &local;
    sub.epoch_out = nullptr;  // the facade epoch above is authoritative
    auto fallback = Monolith()->Execute(spec, strategy, sub);
    ++local.shard_fallbacks;
    return fallback;
  };
  auto result = run();
  MergeStats(local);
  if (control.stats_out != nullptr) *control.stats_out = local;
  return result;
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::ExecuteScatter(
    const CuboidSpec& spec, ExecStrategy strategy, const ExecControl& control,
    ScanStats* stats) {
  TraceContext* trace = control.trace;
  const std::string key = spec.CanonicalString();
  {
    TraceSpan span(trace, "repo.lookup");
    if (auto hit = repository_->Lookup(key)) {
      ++stats->repository_hits;
      span.Note("result", "hit");
      return hit;
    }
    span.Note("result", "miss");
  }

  // Shards execute without the iceberg restriction: a cell split across
  // shards could fall below the threshold in every partial yet clear it
  // globally, so the restriction only applies to the merged cuboid.
  CuboidSpec shard_spec = spec;
  shard_spec.iceberg_min_count.reset();

  const size_t n = shards_.size();
  const bool remote = remote_scatter();
  std::vector<std::shared_ptr<const SCuboid>> partials(n);
  std::vector<ScanStats> shard_stats(n);
  std::vector<Status> shard_status(n, Status::OK());

  {
    TraceSpan scatter(trace, "shard.scatter");
    scatter.Count("shards", n);
    if (remote) scatter.Note("transport", "rpc");
    const int scatter_id = scatter.id();
    // Declared after the span so the fork/join completes (TaskBatch dtor)
    // while "shard.scatter" is still open.
    TaskBatch batch(ScatterPool());
    for (size_t i = 0; i < n; ++i) {
      batch.Submit([&, i] {
        TraceSpan span(trace, "shard.exec", scatter_id);
        span.Count("shard", i);
        if (remote) {
          // An unhealthy shard (supervisor verdict) skips the RPC and its
          // retry budget entirely — fail fast into the degradation policy.
          if (!ShardHealthy(i)) {
            shard_status[i] =
                Status::Unavailable("shard marked degraded by supervisor");
            span.Note("error", shard_status[i].ToString());
            return;
          }
          auto r = remote_clients_[i]->Execute(shard_spec, strategy,
                                               control.stop, trace,
                                               &shard_stats[i]);
          if (r.ok()) {
            partials[i] = r->cuboid;
            span.Count("cells", partials[i]->num_cells());
          } else {
            shard_status[i] = r.status();
            span.Note("error", r.status().ToString());
          }
          return;
        }
        ExecControl sub;
        sub.stop = control.stop;
        sub.stats_out = &shard_stats[i];
        sub.trace = trace;
        auto r = shards_[i]->Execute(shard_spec, strategy, sub);
        if (r.ok()) {
          partials[i] = *r;
          span.Count("cells", partials[i]->num_cells());
        } else {
          shard_status[i] = r.status();
          span.Note("error", r.status().ToString());
        }
      });
    }
  }

  // Work already done counts even when a shard failed.
  for (size_t i = 0; i < n; ++i) *stats += shard_stats[i];

  // Failure disposition. In-process scatter and strict remote mode fail
  // the query on the first shard error. Degraded remote mode recovers
  // unavailable shards: re-execute the slice on the local shard executor
  // (bit-identical — same slice, same code), else answer without it and
  // flag the shards that are missing. Application-class errors (bad spec,
  // cancel, out of time) always fail the query — degradation is for dead
  // shards, not bad requests.
  std::vector<size_t> missing;
  for (size_t i = 0; i < n; ++i) {
    if (shard_status[i].ok()) continue;
    const bool recoverable =
        remote && degrade_policy_ == DegradePolicy::kDegraded &&
        RemoteShardClient::IsTransportError(shard_status[i]);
    if (!recoverable) return shard_status[i];
    if (remote_local_fallback_) {
      TraceSpan span(trace, "shard.local_fallback");
      span.Count("shard", i);
      ScanStats local_stats;
      ExecControl sub;
      sub.stop = control.stop;
      sub.stats_out = &local_stats;
      sub.trace = trace;
      auto r = shards_[i]->Execute(shard_spec, strategy, sub);
      *stats += local_stats;
      if (r.ok()) {
        partials[i] = *r;
        ++stats->degraded_queries;
        continue;
      }
      span.Note("error", r.status().ToString());
    }
    missing.push_back(i);
  }
  if (missing.size() == n) {
    return Status::Unavailable("all shards unavailable");
  }

  TraceSpan gather(trace, "shard.gather");
  size_t first = 0;
  while (partials[first] == nullptr) ++first;
  auto merged = std::make_shared<SCuboid>(partials[first]->dims(),
                                          partials[first]->agg());
  size_t folded = 0;
  // Ascending shard order keeps the FP sum fold deterministic.
  for (size_t i = 0; i < n; ++i) {
    if (partials[i] != nullptr) {
      folded += MergeCuboidPartials(merged.get(), *partials[i]);
    }
  }
  ++stats->shard_scatters;
  stats->shard_partials += n - missing.size();
  stats->shard_merged_cells += folded;
  if (spec.iceberg_min_count.has_value()) {
    merged->ApplyIceberg(*spec.iceberg_min_count);
  }
  gather.Count("merged_cells", folded);
  gather.Count("cells", merged->num_cells());
  if (!missing.empty()) {
    ++stats->partial_answers;
    gather.Count("missing_shards", missing.size());
    if (control.missing_shards != nullptr) {
      *control.missing_shards = missing;
    }
    // A partial answer must never be served from cache as if complete.
    return std::shared_ptr<const SCuboid>(merged);
  }
  repository_->Insert(key, merged);
  return std::shared_ptr<const SCuboid>(merged);
}

Status ShardedEngine::PrecomputeIndex(const CuboidSpec& spec, size_t m,
                                      const LevelRef& position_ref) {
  if (!Shardable(spec)) {
    return Monolith()->PrecomputeIndex(spec, m, position_ref);
  }
  for (SOlapEngine* shard : shards_) {
    SOLAP_RETURN_NOT_OK(shard->PrecomputeIndex(spec, m, position_ref));
  }
  return Status::OK();
}

Status ShardedEngine::WarmSequenceCache(const SequenceSpec& spec) {
  CuboidSpec probe;
  probe.seq = spec;
  if (!Shardable(probe)) return Monolith()->WarmSequenceCache(spec);
  for (SOlapEngine* shard : shards_) {
    SOLAP_RETURN_NOT_OK(shard->WarmSequenceCache(spec));
  }
  return Status::OK();
}

Status ShardedEngine::MaterializeIndex(const SequenceSpec& formation,
                                       const IndexShape& shape) {
  CuboidSpec probe;
  probe.seq = formation;
  if (!Shardable(probe)) return Monolith()->MaterializeIndex(formation, shape);
  for (SOlapEngine* shard : shards_) {
    SOLAP_RETURN_NOT_OK(shard->MaterializeIndex(formation, shape));
  }
  return Status::OK();
}

Status ShardedEngine::IngestRows(const std::vector<std::vector<Value>>& rows,
                                 TraceContext* trace) {
  if (shards_.size() == 1) return shards_[0]->IngestRows(rows, trace);
  if (mutable_table_ == nullptr) {
    return Status::InvalidArgument(
        "IngestRows requires the mutable-table constructor");
  }

  TraceSpan span(trace, "ingest.append");
  span.Note("scope", "facade");
  EpochGate::WriteLock wl(gate_);
  if (rows.empty()) {
    wl.Abandon();
    return Status::OK();
  }
  // Commit to the facade (source-of-truth) table first: validate-first
  // Append keeps the batch all-or-nothing, and a later repartition rebuilds
  // consistent slices from here.
  const RowId from_row = static_cast<RowId>(mutable_table_->num_rows());
  Status appended = mutable_table_->Append(rows);
  if (!appended.ok()) {
    wl.Abandon();
    return appended;
  }
  ScanStats local;
  local.ingested_events = rows.size();
  const size_t n = shards_.size();
  const size_t num_fields = mutable_table_->schema().num_fields();

  auto fan_out = [&]() -> Status {
    // New string values got fresh codes in the facade dictionaries; the
    // shard replicas must assign the identical codes before any shard
    // re-encodes the routed rows.
    std::vector<std::vector<RemoteShardClient::DictUpdate>> dict_updates(n);
    for (size_t c = 0; c < num_fields; ++c) {
      const int col = static_cast<int>(c);
      if (mutable_table_->dictionary(col) == nullptr) continue;
      for (size_t s = 0; s < n; ++s) {
        const size_t from = shard_tables_[s]->DictionarySize(col);
        std::vector<std::string> tail =
            mutable_table_->DictionaryTail(col, from);
        if (tail.empty()) continue;
        SOLAP_RETURN_NOT_OK(shard_tables_[s]->SyncDictionary(col, from, tail));
        // Remote replicas start code-identical to the local slice, so the
        // same tail keeps them that way.
        dict_updates[s].push_back({col, from, std::move(tail)});
      }
    }
    // Route each appended row to the shard owning its sequence.
    std::vector<std::vector<std::vector<Value>>> batches(n);
    const size_t end_row = mutable_table_->num_rows();
    for (RowId r = from_row; r < end_row; ++r) {
      const size_t s = ShardOfCode(mutable_table_->CodeAt(r, shard_col_), n);
      std::vector<Value> row;
      row.reserve(num_fields);
      for (size_t c = 0; c < num_fields; ++c) {
        row.push_back(mutable_table_->GetValue(r, static_cast<int>(c)));
      }
      batches[s].push_back(std::move(row));
    }
    for (size_t s = 0; s < n; ++s) {
      if (batches[s].empty()) continue;
      SOLAP_RETURN_NOT_OK(shards_[s]->IngestRows(batches[s], trace));
      // Remote slices must track the local ones or scatters would answer
      // from pre-append data. A failed replication marks the shard
      // degraded: scatters then use the (up-to-date) local executor until
      // the supervisor restores it.
      if (remote_scatter() && s < remote_clients_.size()) {
        Status replicated = remote_clients_[s]->Append(
            batches[s], dict_updates[s], nullptr, trace);
        if (!replicated.ok()) SetShardHealthy(s, false);
      }
    }
    return Status::OK();
  };
  Status fanned = fan_out();
  if (!fanned.ok()) {
    // The facade table holds the batch but some slice does not — rebuild
    // every slice from the source table so shards and facade agree again.
    shards_.clear();
    owned_shards_.clear();
    shard_tables_.clear();
    BuildShards();
    ++local.formation_invalidations;
  }
  // Merged cuboids span all shards; any append staleness invalidates them.
  local.stale_cuboid_invalidations += repository_->size();
  repository_->Clear();
  {
    std::lock_guard<std::mutex> lock(fallback_mu_);
    if (fallback_) fallback_->NotifyTableAppend();
  }
  span.Count("events", rows.size());
  span.Count("epoch", wl.committed_epoch());
  MergeStats(local);
  return fanned;
}

Status ShardedEngine::EvictBefore(const std::string& order_attr,
                                  int64_t cutoff) {
  if (shards_.size() == 1) return shards_[0]->EvictBefore(order_attr, cutoff);
  EpochGate::WriteLock wl(gate_);
  for (SOlapEngine* shard : shards_) {
    SOLAP_RETURN_NOT_OK(shard->EvictBefore(order_attr, cutoff));
  }
  {
    std::lock_guard<std::mutex> lock(fallback_mu_);
    if (fallback_) {
      SOLAP_RETURN_NOT_OK(fallback_->EvictBefore(order_attr, cutoff));
    }
  }
  repository_->Clear();
  return Status::OK();
}

uint64_t ShardedEngine::epoch() const {
  return shards_.size() == 1 ? shards_[0]->epoch() : gate_.epoch();
}

Status ShardedEngine::MergeDeltasNow(TraceContext* trace) {
  for (SOlapEngine* shard : shards_) {
    SOLAP_RETURN_NOT_OK(shard->MergeDeltasNow(trace));
  }
  return Status::OK();
}

SOlapEngine::DeltaStats ShardedEngine::DeltaSnapshot() const {
  SOlapEngine::DeltaStats out;
  for (const SOlapEngine* shard : shards_) {
    const SOlapEngine::DeltaStats s = shard->DeltaSnapshot();
    out.segments += s.segments;
    out.bytes += s.bytes;
  }
  return out;
}

ScanStats& ShardedEngine::stats() {
  return shards_.size() == 1 ? shards_[0]->stats() : stats_;
}

ScanStats ShardedEngine::StatsSnapshot() const {
  if (shards_.size() == 1) return shards_[0]->StatsSnapshot();
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

size_t ShardedEngine::IndexCacheBytes() const {
  return SumOverExecutors(
      [](const SOlapEngine& e) { return e.IndexCacheBytes(); });
}

size_t ShardedEngine::MemUsed() const {
  return SumOverExecutors(
      [](const SOlapEngine& e) { return e.governor().used(); });
}

size_t ShardedEngine::MemBudget() const {
  return SumOverExecutors(
      [](const SOlapEngine& e) { return e.governor().budget(); });
}

size_t ShardedEngine::MemRejects() const {
  return SumOverExecutors(
      [](const SOlapEngine& e) { return e.governor().rejects(); });
}

}  // namespace solap
