#include "solap/engine/sharded_engine.h"

#include <algorithm>
#include <new>
#include <thread>
#include <utility>

#include "solap/common/failpoint.h"
#include "solap/cube/partial_merge.h"
#include "solap/engine/remote_shard.h"
#include "solap/engine/shard_partition.h"

namespace solap {

namespace {

// The counters only writers tick: each executor counts its own writes.
void AddWriteCounters(const ScanStats& from, ScanStats* to) {
  for (const StatsField& f : kStatsFields) {
    if (f.side == StatsSide::kWrite) to->*f.member += from.*f.member;
  }
}

}  // namespace

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

  // Per-shard executors get an even split of the memory budget and of the
  // cuboid repository: each shard caches the partials it computes.
  shard_opts.repository_capacity_bytes = options_.repository_capacity_bytes / n;
  shard_opts.memory_budget_bytes = options_.memory_budget_bytes / n;

  if (table_ != nullptr) {
    shard_tables_ = table_->PartitionRows(
        n, [this, n](RowId r) { return ShardOfRow(r, n); });
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

size_t ShardedEngine::ShardOfRow(RowId r, size_t n) const {
  return ShardOfCode(table_->CodeAt(r, shard_col_), n);
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
  // The shard servers partitioned the same snapshot this table holds, so
  // they start with its dictionaries.
  replica_dict_sizes_.assign(endpoints.size(), {});
  if (table_ != nullptr) {
    for (size_t c = 0; c < table_->schema().num_fields(); ++c) {
      const Dictionary* dict = table_->dictionary(static_cast<int>(c));
      for (std::vector<size_t>& sizes : replica_dict_sizes_) {
        sizes.push_back(dict != nullptr ? dict->size() : 0);
      }
    }
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
  if (shards_.size() == 1) {
    return shards_[0]->Execute(spec, strategy, control);
  }

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
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ += local;
  }
  if (control.stats_out != nullptr) *control.stats_out = local;
  return result;
}

Result<std::shared_ptr<const SCuboid>> ShardedEngine::ExecuteScatter(
    const CuboidSpec& spec, ExecStrategy strategy, const ExecControl& control,
    ScanStats* stats) {
  TraceContext* trace = control.trace;
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
  // One in-process shard execution: the scatter's own path, and the local
  // re-execution of a slice whose remote shard is unavailable.
  auto run_local = [&](size_t i, ScanStats* shard_stats_out) {
    ExecControl sub;
    sub.stop = control.stop;
    sub.stats_out = shard_stats_out;
    sub.trace = trace;
    return shards_[i]->Execute(shard_spec, strategy, sub);
  };

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
        auto r = run_local(i, &shard_stats[i]);
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
      auto r = run_local(i, &local_stats);
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
  }
  return std::shared_ptr<const SCuboid>(merged);
}

Status ShardedEngine::PrecomputeIndex(const CuboidSpec& spec, size_t m,
                                      const LevelRef& position_ref) {
  return MaterializeIndex(
      spec.seq, IndexShape{spec.kind, std::vector<LevelRef>(m, position_ref)});
}

Status ShardedEngine::WarmSequenceCache(const SequenceSpec& spec) {
  // Shared gate: IngestRows appends to the slices under the exclusive one.
  EpochGate::ReadLock rl(gate_);
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
  EpochGate::ReadLock rl(gate_);
  CuboidSpec probe;
  probe.seq = formation;
  if (!Shardable(probe)) return Monolith()->MaterializeIndex(formation, shape);
  for (SOlapEngine* shard : shards_) {
    SOLAP_RETURN_NOT_OK(shard->MaterializeIndex(formation, shape));
  }
  return Status::OK();
}

Status ShardedEngine::IngestRows(const std::vector<std::vector<Value>>& rows,
                                 TraceContext* trace, uint64_t* epoch_out) {
  if (shards_.size() == 1) {
    return shards_[0]->IngestRows(rows, trace, epoch_out);
  }
  if (mutable_table_ == nullptr) {
    return Status::InvalidArgument(
        "IngestRows requires the mutable-table constructor");
  }

  TraceSpan span(trace, "ingest.append");
  span.Note("scope", "facade");
  SOLAP_FAILPOINT("ingest.append");
  EpochGate::WriteLock wl(gate_);
  if (rows.empty()) {
    wl.Abandon();
    if (epoch_out != nullptr) *epoch_out = wl.committed_epoch() - 2;
    return Status::OK();
  }
  // Commit to the facade (source-of-truth) table: validate-first Append
  // keeps the batch all-or-nothing. Nothing after it can fail, so a batch
  // the facade holds is always reported OK.
  const RowId from_row = static_cast<RowId>(mutable_table_->num_rows());
  Status appended = mutable_table_->Append(rows);
  if (!appended.ok()) {
    wl.Abandon();
    return appended;
  }
  const size_t n = shards_.size();
  std::vector<size_t> old_rows(n);
  for (size_t s = 0; s < n; ++s) old_rows[s] = shard_tables_[s]->num_rows();
  mutable_table_->CopyRowsInto(
      from_row, shard_tables_, [this, n](RowId r) { return ShardOfRow(r, n); });
  // Only the shards whose slice grew catch up: a catch-up with no new rows
  // would still invalidate the shard's unpatchable cached cuboids.
  for (size_t s = 0; s < n; ++s) {
    if (shard_tables_[s]->num_rows() > old_rows[s]) {
      shards_[s]->NotifyTableAppend(trace);
    }
  }
  {
    std::lock_guard<std::mutex> lock(fallback_mu_);
    if (fallback_) fallback_->NotifyTableAppend(trace);
  }
  if (remote_scatter()) ReplicateAppend(old_rows, trace);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.ingested_events += rows.size();
  }
  span.Count("events", rows.size());
  span.Count("epoch", wl.committed_epoch());
  if (epoch_out != nullptr) *epoch_out = wl.committed_epoch();
  return Status::OK();
}

void ShardedEngine::ReplicateAppend(const std::vector<size_t>& old_rows,
                                    TraceContext* trace) {
  const size_t num_fields = table_->schema().num_fields();
  for (size_t s = 0; s < shards_.size(); ++s) {
    const EventTable& slice = *shard_tables_[s];
    if (slice.num_rows() == old_rows[s]) continue;
    std::vector<std::vector<Value>> rows;
    for (RowId r = static_cast<RowId>(old_rows[s]); r < slice.num_rows();
         ++r) {
      std::vector<Value> row;
      row.reserve(num_fields);
      for (size_t c = 0; c < num_fields; ++c) {
        row.push_back(slice.GetValue(r, static_cast<int>(c)));
      }
      rows.push_back(std::move(row));
    }
    // Every tail from what this server acknowledged, so a server that got
    // no rows in earlier batches still receives their new codes before
    // rows that use them. SyncDictionary verifies any overlap a resend
    // after a failed append carries.
    std::vector<size_t>& acked = replica_dict_sizes_[s];
    std::vector<RemoteShardClient::DictUpdate> dicts;
    for (size_t c = 0; c < num_fields; ++c) {
      const int col = static_cast<int>(c);
      const Dictionary* dict = slice.dictionary(col);
      if (dict == nullptr || dict->size() == acked[c]) continue;
      dicts.push_back({col, acked[c], slice.DictionaryTail(col, acked[c])});
    }
    // A failed replication marks the shard degraded: scatters then use the
    // (up-to-date) local executor until the supervisor restores it.
    if (!remote_clients_[s]->Append(rows, dicts, nullptr, trace).ok()) {
      SetShardHealthy(s, false);
      continue;
    }
    for (const RemoteShardClient::DictUpdate& d : dicts) {
      acked[d.col] = d.from + d.values.size();
    }
  }
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
  return Status::OK();
}

uint64_t ShardedEngine::epoch() const {
  return shards_.size() == 1 ? shards_[0]->epoch() : gate_.epoch();
}

ScanStats ShardedEngine::StatsSnapshot() const {
  if (shards_.size() == 1) return shards_[0]->StatsSnapshot();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ScanStats total = stats_;
  for (const SOlapEngine* shard : shards_) {
    AddWriteCounters(shard->StatsSnapshot(), &total);
  }
  std::lock_guard<std::mutex> fallback_lock(fallback_mu_);
  if (fallback_) AddWriteCounters(fallback_->StatsSnapshot(), &total);
  return total;
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
