#include "solap/cube/partial_merge.h"

namespace solap {

size_t MergeCuboidPartials(SCuboid* dst, const SCuboid& src) {
  size_t folded = 0;
  const size_t ndims = src.dims().size();
  for (const auto& [key, value] : src.cells()) {
    dst->MergeCell(key, value);
    for (size_t d = 0; d < ndims && d < key.size(); ++d) {
      dst->SetLabel(d, key[d], src.LabelOf(d, key[d]));
    }
    ++folded;
  }
  return folded;
}

}  // namespace solap
