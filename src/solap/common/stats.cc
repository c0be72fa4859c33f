#include "solap/common/stats.h"

#include <sstream>

namespace solap {

std::string ScanStats::ToString() const {
  std::ostringstream os;
  os << "scanned=" << sequences_scanned << " lists=" << lists_built
     << " intersections=" << list_intersections << " (linear="
     << intersections_linear << " gallop=" << intersections_galloping
     << " bitmap=" << intersections_bitmap << ")"
     << " containers=(array=" << container_array_ops
     << " bitmap=" << container_bitmap_ops << " run=" << container_run_ops
     << " gallop=" << container_gallop_ops << ")"
     << " index_bytes=" << index_bytes_built << " repo_hits=" << repository_hits
     << " index_hits=" << index_cache_hits
     << " degraded=" << degraded_queries;
  if (shard_scatters != 0 || shard_fallbacks != 0) {
    os << " shards=(scatters=" << shard_scatters
       << " partials=" << shard_partials
       << " merged_cells=" << shard_merged_cells
       << " fallbacks=" << shard_fallbacks << ")";
  }
  if (shard_rpc_retries != 0 || partial_answers != 0) {
    os << " rpc=(retries=" << shard_rpc_retries
       << " partial=" << partial_answers << ")";
  }
  if (ingested_events != 0 || delta_merges != 0) {
    os << " ingest=(events=" << ingested_events
       << " merges=" << delta_merges << " patches=" << cuboid_patches
       << " stale_cuboids=" << stale_cuboid_invalidations
       << " stale_formations=" << formation_invalidations << ")";
  }
  if (formations_derived != 0) {
    os << " formations_derived=" << formations_derived;
  }
  return os.str();
}

}  // namespace solap
