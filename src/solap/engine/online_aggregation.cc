// Online aggregation (paper §6): report "what the engine knows so far"
// while an S-cuboid is still being computed. The counter-based scan is
// chunked; after each chunk the partial cuboid and the fraction of
// sequences processed are handed to a progress callback, which may stop
// the computation early and keep the approximate answer.
#include "solap/engine/engine.h"

namespace solap {

Result<std::shared_ptr<const SCuboid>> SOlapEngine::ExecuteOnline(
    const CuboidSpec& spec, size_t report_every, const ProgressFn& progress) {
  if (report_every == 0) {
    return Status::InvalidArgument("report_every must be positive");
  }
  if (spec.is_regex()) {
    return Status::NotImplemented(
        "online aggregation over regex templates is not supported yet");
  }
  EpochGate::ReadLock rl(gate_);
  auto cuboid = std::make_shared<SCuboid>(MakeDimDescriptors(spec), spec.agg);
  ScanStats local;
  auto prepared = Prepare(spec, cuboid.get(), &local);
  if (!prepared.ok()) {
    MergeStats(local);
    return prepared.status();
  }
  QueryContext ctx = *std::move(prepared);

  size_t total = 0;
  for (size_t gi : ctx.selected_groups) {
    total += ctx.groups->groups()[gi].num_sequences();
  }
  if (total == 0) total = 1;  // avoid 0/0 in the fraction

  size_t processed = 0;
  bool stopped = false;
  for (size_t gi : ctx.selected_groups) {
    SequenceGroup& group = ctx.groups->groups()[gi];
    SOLAP_ASSIGN_OR_RETURN(
        BoundPattern bp,
        BoundPattern::Bind(&ctx.tmpl, &group, *ctx.groups, hierarchies_,
                           ctx.spec->predicate, ctx.spec->placeholders));
    const Sid n = static_cast<Sid>(group.num_sequences());
    for (Sid begin = 0; begin < n && !stopped;
         begin += static_cast<Sid>(report_every)) {
      Sid end = static_cast<Sid>(
          std::min<size_t>(begin + report_every, n));
      Status scan = CounterScanRange(ctx, group, bp, begin, end, ctx.cuboid,
                                     ctx.stats);
      if (!scan.ok()) {
        MergeStats(local);
        return scan;
      }
      processed += end - begin;
      if (!progress(*cuboid, static_cast<double>(processed) /
                                 static_cast<double>(total))) {
        stopped = true;
      }
    }
    if (stopped) break;
  }

  MergeStats(local);
  if (!stopped && spec.iceberg_min_count.has_value()) {
    cuboid->ApplyIceberg(*spec.iceberg_min_count);
  }
  // Early-stopped (approximate) cuboids are returned but never cached.
  if (!stopped) {
    repository_.Insert(spec.CanonicalString(), cuboid, spec, gate_.epoch());
  }
  return std::shared_ptr<const SCuboid>(cuboid);
}

}  // namespace solap
