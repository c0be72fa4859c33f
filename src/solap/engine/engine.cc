#include "solap/engine/engine.h"

#include <algorithm>
#include <new>
#include <thread>

#include "solap/common/failpoint.h"
#include "solap/engine/optimizer.h"
#include "solap/index/build_index.h"
#include "solap/index/index_ops.h"
#include "solap/seq/sequence_query_engine.h"

namespace solap {

SOlapEngine::SOlapEngine(const EventTable* table,
                         const HierarchyRegistry* hierarchies,
                         EngineOptions options)
    : table_(table),
      hierarchies_(hierarchies),
      options_(options),
      governor_(options.memory_budget_bytes),
      repository_(options.repository_capacity_bytes) {
  sequence_cache_.set_governor(&governor_);
  repository_.set_governor(&governor_);
}

SOlapEngine::SOlapEngine(EventTable* table,
                         const HierarchyRegistry* hierarchies,
                         EngineOptions options)
    : SOlapEngine(static_cast<const EventTable*>(table), hierarchies,
                  options) {
  mutable_table_ = table;
}

SOlapEngine::SOlapEngine(std::shared_ptr<SequenceGroupSet> raw_groups,
                         const HierarchyRegistry* hierarchies,
                         EngineOptions options)
    : raw_groups_(std::move(raw_groups)),
      hierarchies_(hierarchies),
      options_(options),
      governor_(options.memory_budget_bytes),
      repository_(options.repository_capacity_bytes) {
  sequence_cache_.set_governor(&governor_);
  repository_.set_governor(&governor_);
}

SOlapEngine::~SOlapEngine() { StopMerger(); }

Result<std::shared_ptr<const SCuboid>> SOlapEngine::Execute(
    const CuboidSpec& spec) {
  return Execute(spec, options_.default_strategy);
}

// Applies labels to every cell of `cuboid` using the group set's global
// bindings plus per-pattern-dimension bindings.
Status SOlapEngine::LabelCells(SCuboid* cuboid, const SequenceGroupSet& set,
                               const HierarchyRegistry* reg,
                               const std::vector<PatternDim>& dims) {
  std::vector<DimensionBinding> pattern_bindings;
  for (const PatternDim& d : dims) {
    SOLAP_ASSIGN_OR_RETURN(DimensionBinding b,
                           set.BindDimension(reg, d.ref));
    pattern_bindings.push_back(std::move(b));
  }
  const std::vector<DimensionBinding>& gb = set.global_bindings();
  const size_t q = gb.size();
  for (const auto& [key, cell] : cuboid->cells()) {
    for (size_t i = 0; i < q; ++i) {
      cuboid->SetLabel(i, key[i], gb[i].Label(key[i]));
    }
    for (size_t d = 0; d < pattern_bindings.size(); ++d) {
      cuboid->SetLabel(q + d, key[q + d], pattern_bindings[d].Label(key[q + d]));
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const SCuboid>> SOlapEngine::Execute(
    const CuboidSpec& spec, ExecStrategy strategy) {
  return Execute(spec, strategy, ExecControl{});
}

Result<std::shared_ptr<const SCuboid>> SOlapEngine::Execute(
    const CuboidSpec& spec, ExecStrategy strategy,
    const ExecControl& control) {
  // The whole execution runs against one epoch snapshot: writers (ingest,
  // merge, eviction) are held off until the shared guard drops.
  EpochGate::ReadLock rl(gate_);
  if (control.epoch_out != nullptr) *control.epoch_out = rl.epoch();
  ScanStats local;
  auto result = ExecuteWithStats(spec, strategy, control, &local);
  MergeStats(local);
  if (control.stats_out != nullptr) *control.stats_out = local;
  return result;
}

namespace {

// An II failure worth re-answering through the CB path: transient faults
// (kInternal) and memory pressure (kResourceExhausted). User errors,
// cancellation and deadlines are final — rerunning could not change them
// (and a timed-out query must not burn a second, slower pass).
bool DegradableToCb(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kInternal;
}

}  // namespace

Result<std::shared_ptr<const SCuboid>> SOlapEngine::ExecuteWithStats(
    const CuboidSpec& spec, ExecStrategy strategy, const ExecControl& control,
    ScanStats* stats) {
  // The query boundary: allocation failure anywhere in execution surfaces
  // as a per-query ResourceExhausted instead of killing the process.
  try {
    return ExecuteGuarded(spec, strategy, control, stats);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "query aborted: memory exhausted during execution");
  }
}

Result<std::shared_ptr<const SCuboid>> SOlapEngine::ExecuteGuarded(
    const CuboidSpec& spec, ExecStrategy strategy, const ExecControl& control,
    ScanStats* stats) {
  TraceContext* trace = control.trace;
  if (strategy == ExecStrategy::kAuto && !spec.is_regex()) {
    TraceSpan span(trace, "optimize");
    StrategyOptimizer optimizer(this);
    SOLAP_ASSIGN_OR_RETURN(StrategyChoice choice, optimizer.Choose(spec));
    strategy = choice.strategy;
    span.Note("strategy", StrategyName(strategy));
    span.Note("reason", choice.reason);
    span.Count("cb_cost", static_cast<uint64_t>(choice.cb_cost));
    span.Count("ii_cost", static_cast<uint64_t>(choice.ii_cost));
  }
  const std::string key = spec.CanonicalString();
  {
    TraceSpan span(trace, "repo.lookup");
    if (auto hit = repository_.Lookup(key)) {
      ++stats->repository_hits;
      span.Note("result", "hit");
      return hit;
    }
    span.Note("result", "miss");
  }
  SOLAP_RETURN_NOT_OK(CheckStop(control.stop, "query execution"));
  auto cuboid = std::make_shared<SCuboid>(MakeDimDescriptors(spec), spec.agg);
  TraceSpan prep_span(trace, "prepare");
  SOLAP_ASSIGN_OR_RETURN(QueryContext ctx, Prepare(spec, cuboid.get()));
  if (prep_span.active()) {
    prep_span.Count("groups", ctx.groups->groups().size());
    prep_span.Count("selected_groups", ctx.selected_groups.size());
  }
  prep_span.End();
  ctx.stats = stats;
  ctx.stop = control.stop;
  ctx.trace = trace;
  if (spec.is_regex()) {
    TraceSpan span(trace, "exec.regex");
    SOLAP_RETURN_NOT_OK(RunRegex(ctx));
  } else if (strategy == ExecStrategy::kCounterBased) {
    TraceSpan span(trace, "exec.cb");
    SOLAP_RETURN_NOT_OK(RunCounterBased(ctx));
  } else {
    // II with graceful degradation: a transient failure (injected fault,
    // budget reject, allocation failure inside index build/join) falls
    // back to the CB scan, which needs no auxiliary structures and
    // produces the bit-identical cuboid (both strategies fold the same
    // assignments; see DESIGN.md "Robustness & fault model").
    Status ii = Status::OK();
    {
      TraceSpan span(trace, "exec.ii");
      try {
        ii = RunInvertedIndex(ctx);
      } catch (const std::bad_alloc&) {
        ii = Status::ResourceExhausted(
            "inverted-index execution ran out of memory");
      }
      if (!ii.ok()) span.Note("error", ii.message());
    }
    if (!ii.ok()) {
      if (!DegradableToCb(ii.code())) return ii;
      ++stats->degraded_queries;
      TraceSpan span(trace, "exec.degrade_cb");
      span.Note("cause", ii.message());
      // The failed II run may have folded cells already — restart from a
      // fresh cuboid and context.
      cuboid = std::make_shared<SCuboid>(MakeDimDescriptors(spec), spec.agg);
      SOLAP_ASSIGN_OR_RETURN(ctx, Prepare(spec, cuboid.get()));
      ctx.stats = stats;
      ctx.stop = control.stop;
      ctx.trace = trace;
      SOLAP_RETURN_NOT_OK(RunCounterBased(ctx));
    }
  }
  TraceSpan fin_span(trace, "finalize");
  if (spec.iceberg_min_count.has_value()) {
    cuboid->ApplyIceberg(*spec.iceberg_min_count);
  }
  SOLAP_RETURN_NOT_OK(
      LabelCells(cuboid.get(), *ctx.groups, hierarchies_, spec.dims));
  repository_.Insert(key, cuboid, spec, gate_.epoch());
  fin_span.Count("cells", cuboid->cells().size());
  return std::shared_ptr<const SCuboid>(cuboid);
}

Result<SOlapEngine::QueryContext> SOlapEngine::Prepare(const CuboidSpec& spec,
                                                       SCuboid* cuboid) {
  QueryContext ctx;
  ctx.spec = &spec;
  ctx.cuboid = cuboid;
  if (spec.is_regex()) {
    if (spec.predicate != nullptr) {
      return Status::NotImplemented(
          "matching predicates are not supported with regex pattern "
          "templates (event placeholders are positional)");
    }
    SOLAP_ASSIGN_OR_RETURN(ctx.rtmpl,
                           RegexTemplate::Parse(spec.regex, spec.dims));
  } else {
    SOLAP_ASSIGN_OR_RETURN(ctx.tmpl, spec.MakeTemplate());
  }
  SOLAP_ASSIGN_OR_RETURN(ctx.groups, GetGroups(spec.seq));
  SOLAP_ASSIGN_OR_RETURN(ctx.selected_groups,
                         SelectGroups(*ctx.groups, spec));
  if (spec.agg != AggKind::kCount) {
    if (ctx.groups->is_raw()) {
      return Status::InvalidArgument(
          "raw sequence groups carry no measure attributes; only COUNT is "
          "available");
    }
    if (spec.measure.empty()) {
      return Status::InvalidArgument(std::string(AggKindName(spec.agg)) +
                                     " requires a measure attribute");
    }
    SOLAP_ASSIGN_OR_RETURN(ctx.measure_col,
                           table_->schema().RequireField(spec.measure));
    const Field& f = table_->schema().field(ctx.measure_col);
    if (f.type != ValueType::kDouble && f.type != ValueType::kInt64) {
      return Status::InvalidArgument("measure attribute '" + spec.measure +
                                     "' must be numeric");
    }
  }
  return ctx;
}

Result<std::shared_ptr<SequenceGroupSet>> SOlapEngine::GetGroups(
    const SequenceSpec& s) {
  if (raw_groups_ != nullptr) return raw_groups_;
  if (auto cached = sequence_cache_.Lookup(s)) return cached;
  SOLAP_FAILPOINT("engine.formation");
  SequenceQueryEngine sqe(hierarchies_);
  // Fresh formations apply the same retention window incremental extension
  // does, so rebuild-vs-extend answers agree (docs/INGESTION.md).
  SOLAP_ASSIGN_OR_RETURN(
      std::shared_ptr<SequenceGroupSet> set,
      sqe.Build(*table_, s, retention_.col >= 0 ? &retention_ : nullptr));
  // Concurrent builders of the same formation converge on one canonical
  // set, keeping the per-group index caches (keyed by set identity) shared.
  return sequence_cache_.InsertIfAbsent(s, std::move(set));
}

Result<std::vector<size_t>> SOlapEngine::SelectGroups(
    const SequenceGroupSet& set, const CuboidSpec& spec) const {
  std::vector<size_t> selected(set.groups().size());
  for (size_t i = 0; i < selected.size(); ++i) selected[i] = i;
  for (const GlobalSlice& slice : spec.global_slices) {
    // Locate the global dimension the slice applies to.
    int dim = -1;
    for (size_t i = 0; i < set.global_dims().size(); ++i) {
      if (set.global_dims()[i].attr == slice.ref.attr) {
        dim = static_cast<int>(i);
        break;
      }
    }
    if (dim < 0) {
      return Status::InvalidArgument(
          "global slice on '" + slice.ref.attr +
          "' has no matching SEQUENCE GROUP BY dimension");
    }
    SOLAP_ASSIGN_OR_RETURN(
        std::vector<Code> allowed,
        set.global_bindings()[dim].AllowedCodes(slice.ref.level,
                                                slice.labels));
    std::vector<size_t> kept;
    for (size_t gi : selected) {
      Code c = set.groups()[gi].key()[dim];
      if (std::find(allowed.begin(), allowed.end(), c) != allowed.end()) {
        kept.push_back(gi);
      }
    }
    selected = std::move(kept);
  }
  return selected;
}

std::vector<DimDescriptor> SOlapEngine::MakeDimDescriptors(
    const CuboidSpec& spec) const {
  std::vector<DimDescriptor> dims;
  for (const LevelRef& r : spec.seq.group_by) {
    dims.push_back(DimDescriptor{r.attr, r, /*is_pattern=*/false});
  }
  for (const PatternDim& d : spec.dims) {
    dims.push_back(DimDescriptor{d.symbol, d.ref, /*is_pattern=*/true});
  }
  return dims;
}

double SOlapEngine::ContentSum(const QueryContext& ctx, SequenceGroup& group,
                               Sid s, const uint32_t* idx, size_t m,
                               bool whole_sequence) const {
  double sum = 0.0;
  std::span<const RowId> rows = group.Rows(s);
  auto value_of = [&](RowId row) {
    const Field& f = table_->schema().field(ctx.measure_col);
    return f.type == ValueType::kDouble
               ? table_->DoubleAt(row, ctx.measure_col)
               : static_cast<double>(table_->Int64At(row, ctx.measure_col));
  };
  if (whole_sequence) {
    for (RowId row : rows) sum += value_of(row);
  } else {
    for (size_t i = 0; i < m; ++i) sum += value_of(rows[idx[i]]);
  }
  return sum;
}

void SOlapEngine::AddAssignment(const QueryContext& ctx,
                                SequenceGroup& group, const BoundPattern& bp,
                                const PatternKey& dim_codes, Sid s,
                                const uint32_t* idx, SCuboid* cuboid) const {
  (void)bp;
  CellKey cell = group.key();
  cell.insert(cell.end(), dim_codes.begin(), dim_codes.end());
  if (ctx.measure_col < 0) {
    cuboid->AddCountOnly(cell);
    return;
  }
  bool whole = ctx.spec->restriction == CellRestriction::kLeftMaxDataGo;
  double v = ContentSum(ctx, group, s, idx, ctx.tmpl.num_positions(), whole);
  cuboid->Add(cell, v);
}

Status SOlapEngine::PrecomputeIndex(const CuboidSpec& spec, size_t m,
                                    const LevelRef& position_ref) {
  EpochGate::ReadLock rl(gate_);
  SOLAP_ASSIGN_OR_RETURN(std::shared_ptr<SequenceGroupSet> groups,
                         GetGroups(spec.seq));
  IndexShape shape;
  shape.kind = spec.kind;
  shape.positions.assign(m, position_ref);
  ScanStats local;
  for (size_t gi = 0; gi < groups->groups().size(); ++gi) {
    GroupIndexCache& cache = CacheFor(*groups, gi);
    if (cache.Find(shape, "") != nullptr) continue;
    auto built = BuildIndex(&groups->groups()[gi], *groups, hierarchies_,
                            shape, &local, &governor_);
    if (!built.ok()) {
      MergeStats(local);
      return built.status();
    }
    Status inserted = cache.Insert(*std::move(built));
    if (!inserted.ok()) {
      MergeStats(local);
      return inserted;
    }
  }
  MergeStats(local);
  return Status::OK();
}

Status SOlapEngine::MaterializeIndex(const SequenceSpec& formation,
                                     const IndexShape& shape) {
  EpochGate::ReadLock rl(gate_);
  SOLAP_ASSIGN_OR_RETURN(std::shared_ptr<SequenceGroupSet> groups,
                         GetGroups(formation));
  ScanStats local;
  for (size_t gi = 0; gi < groups->groups().size(); ++gi) {
    GroupIndexCache& cache = CacheFor(*groups, gi);
    if (cache.Find(shape, "") != nullptr) continue;
    auto built = BuildIndex(&groups->groups()[gi], *groups, hierarchies_,
                            shape, &local, &governor_);
    if (!built.ok()) {
      MergeStats(local);
      return built.status();
    }
    Status inserted = cache.Insert(*std::move(built));
    if (!inserted.ok()) {
      MergeStats(local);
      return inserted;
    }
  }
  MergeStats(local);
  return Status::OK();
}

Status SOlapEngine::WarmSequenceCache(const SequenceSpec& spec) {
  EpochGate::ReadLock rl(gate_);
  SOLAP_ASSIGN_OR_RETURN(std::shared_ptr<SequenceGroupSet> groups,
                         GetGroups(spec));
  (void)groups;
  return Status::OK();
}

void SOlapEngine::NotifyTableAppend() {
  EpochGate::WriteLock wl(gate_);
  sequence_cache_.Clear();
  {
    std::lock_guard<std::mutex> lock(index_caches_mu_);
    index_caches_.clear();
  }
  repository_.Clear();
}

size_t SOlapEngine::IndexCacheBytes() const {
  std::lock_guard<std::mutex> lock(index_caches_mu_);
  size_t bytes = 0;
  for (const auto& [key, cache] : index_caches_) bytes += cache.TotalBytes();
  return bytes;
}

Result<std::vector<Code>> SOlapEngine::LevelMapFor(
    const SequenceGroupSet& set, const std::string& attr, int from_level,
    int to_level) const {
  ConceptHierarchy* h =
      hierarchies_ != nullptr ? hierarchies_->Find(attr) : nullptr;
  if (h == nullptr) {
    return Status::InvalidArgument("attribute '" + attr +
                                   "' has no concept hierarchy");
  }
  const Dictionary* base_dict;
  if (set.is_raw()) {
    base_dict = &set.raw_dictionary();
  } else {
    SOLAP_ASSIGN_OR_RETURN(int col, set.table()->schema().RequireField(attr));
    base_dict = set.table()->dictionary(col);
    if (base_dict == nullptr) {
      return Status::InvalidArgument("attribute '" + attr +
                                     "' is not a string dimension");
    }
  }
  return h->LevelToLevel(*base_dict, from_level, to_level);
}

GroupIndexCache& SOlapEngine::CacheFor(const SequenceGroupSet& set,
                                       size_t group_idx) {
  std::string key =
      std::to_string(reinterpret_cast<uintptr_t>(&set)) + ":" +
      std::to_string(group_idx);
  // unordered_map references are stable across inserts, so the returned
  // cache outlives the lock; the cache itself synchronizes internally. The
  // governor is fixed when the entry is created: a lookup writes nothing.
  std::lock_guard<std::mutex> lock(index_caches_mu_);
  return index_caches_.try_emplace(key, &governor_).first->second;
}

const GroupIndexCache* SOlapEngine::FindIndexCache(
    const SequenceGroupSet& set, size_t group_idx) const {
  std::string key =
      std::to_string(reinterpret_cast<uintptr_t>(&set)) + ":" +
      std::to_string(group_idx);
  std::lock_guard<std::mutex> lock(index_caches_mu_);
  auto it = index_caches_.find(key);
  return it == index_caches_.end() ? nullptr : &it->second;
}

ThreadPool* SOlapEngine::ComputePool() {
  std::lock_guard<std::mutex> lock(compute_pool_mu_);
  if (!compute_pool_created_) {
    compute_pool_created_ = true;
    const size_t hw =
        std::max<size_t>(std::thread::hardware_concurrency(), 1);
    size_t n = options_.exec_threads;
    if (n == 0) n = hw;
    // CB partitioning shares this pool: an explicit cb_threads > 1 must
    // still get workers even when exec_threads was left at its default
    // (clamped to the hardware — see RunCounterBased).
    n = std::max(n, std::min<size_t>(options_.cb_threads, hw));
    if (n > 1) compute_pool_ = std::make_unique<ThreadPool>(n);
  }
  return compute_pool_.get();
}

JoinExecOptions SOlapEngine::JoinExec() {
  JoinExecOptions exec;
  exec.bitmap_threshold = options_.bitmap_join_threshold;
  exec.adaptive_kernels = options_.adaptive_join_kernels;
  exec.pool = ComputePool();
  exec.parallel_min_lists = options_.parallel_min_lists;
  exec.parallel_min_work = options_.parallel_min_work;
  exec.governor = &governor_;
  return exec;
}

}  // namespace solap
