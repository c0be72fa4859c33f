#include "solap/seq/sequence_group.h"

#include <algorithm>
#include <utility>

namespace solap {

Sid SequenceGroup::AddSequence(std::span<const uint32_t> items) {
  data_.insert(data_.end(), items.begin(), items.end());
  offsets_.push_back(static_cast<uint32_t>(data_.size()));
  return static_cast<Sid>(offsets_.size() - 2);
}

const std::vector<Code>& SequenceGroup::ViewFor(const DimensionBinding& dim) {
  const std::string key = dim.ref().ToString();
  // The whole lookup-compute-insert runs under the view lock: concurrent
  // queries binding the same (attr, level) then share one materialization.
  // References handed out earlier stay valid (unordered_map node stability).
  std::lock_guard<std::mutex> lock(*views_mu_);
  auto it = views_.find(key);
  if (it != views_.end()) return it->second;

  std::vector<Code> view(data_.size());
  if (table_ != nullptr) {
    dim.CodesOf(*table_, data_, view.data());
  } else {
    // Raw group: data_ holds base codes of the single raw attribute.
    for (size_t i = 0; i < data_.size(); ++i) {
      view[i] = dim.MapBaseCode(data_[i]);
    }
  }
  return views_.emplace(key, std::move(view)).first->second;
}

std::shared_ptr<const SequenceGroup::EndpointOrder>
SequenceGroup::EndpointOrderFor(int order_col, bool ascending) {
  std::lock_guard<std::mutex> lock(*views_mu_);
  const size_t n = num_sequences();
  if (endpoint_order_ != nullptr && endpoint_order_->by_first.size() == n) {
    return endpoint_order_;
  }
  auto order = std::make_shared<EndpointOrder>();
  auto sorted = [&](auto endpoint) {
    std::vector<std::pair<int64_t, Sid>> keyed(n);
    for (Sid s = 0; s < n; ++s) {
      const int64_t v = table_->Int64At(endpoint(s), order_col);
      keyed[s] = {ascending ? v : ~v, s};  // ~v reverses the order
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<Sid> sids(n);
    for (size_t i = 0; i < n; ++i) sids[i] = keyed[i].second;
    return sids;
  };
  order->by_first = sorted([&](Sid s) { return data_[offsets_[s]]; });
  order->by_last = sorted([&](Sid s) { return data_[offsets_[s + 1] - 1]; });
  endpoint_order_ = std::move(order);
  return endpoint_order_;
}

SequenceGroup& SequenceGroupSet::GroupFor(const CellKey& key) {
  auto it = group_index_.find(key);
  if (it != group_index_.end()) return groups_[it->second];
  group_index_.emplace(key, groups_.size());
  groups_.emplace_back(table_);
  groups_.back().set_key(key);
  return groups_.back();
}

size_t SequenceGroupSet::total_sequences() const {
  size_t n = 0;
  for (const SequenceGroup& g : groups_) n += g.num_sequences();
  return n;
}

size_t SequenceGroupSet::ApproxBytes() const {
  size_t bytes = sizeof(SequenceGroupSet);
  for (const SequenceGroup& g : groups_) {
    bytes += sizeof(SequenceGroup);
    bytes += g.offsets().size() * sizeof(uint32_t);
    bytes += g.total_events() * sizeof(uint32_t);
    bytes += g.key().size() * sizeof(Code);
  }
  return bytes;
}

std::vector<std::string> SequenceGroupSet::KeyLabels(
    const CellKey& key) const {
  std::vector<std::string> out;
  out.reserve(key.size());
  for (size_t i = 0; i < key.size() && i < global_bindings_.size(); ++i) {
    out.push_back(global_bindings_[i].Label(key[i]));
  }
  return out;
}

Result<DimensionBinding> SequenceGroupSet::BindDimension(
    const HierarchyRegistry* reg, const LevelRef& ref) const {
  if (is_raw()) {
    if (ref.attr != raw_attr_) {
      return Status::InvalidArgument("raw sequence group set only exposes "
                                     "attribute '" +
                                     raw_attr_ + "', got '" + ref.attr + "'");
    }
    return DimensionBinding::MakeForRaw(raw_dict_, reg, ref);
  }
  return DimensionBinding::MakeForTable(*table_, reg, ref);
}

}  // namespace solap
