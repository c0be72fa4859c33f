#include "solap/index/inverted_index.h"

namespace solap {

std::string IndexShape::CanonicalString() const {
  std::string out = PatternKindName(kind);
  out += "[";
  for (const LevelRef& r : positions) {
    out += r.ToString();
    out += ",";
  }
  out += "]";
  return out;
}

IndexShape IndexShape::ExtendedRight(const LevelRef& ref) const {
  IndexShape out = *this;
  out.positions.push_back(ref);
  return out;
}

IndexShape IndexShape::ExtendedLeft(const LevelRef& ref) const {
  IndexShape out = *this;
  out.positions.insert(out.positions.begin(), ref);
  return out;
}

size_t InvertedIndex::total_entries() const {
  size_t n = 0;
  for (const auto& [key, list] : lists_) n += list.size();
  return n;
}

size_t InvertedIndex::ByteSize() const {
  size_t bytes = 0;
  for (const auto& [key, list] : lists_) {
    bytes += key.size() * sizeof(Code) + list.ByteSize();
  }
  return bytes + DeltaByteSize();
}

size_t InvertedIndex::DeltaByteSize() const {
  size_t bytes = 0;
  for (const auto& [key, list] : delta_) {
    bytes += key.size() * sizeof(Code) + list.ByteSize();
  }
  return bytes;
}

void InvertedIndex::MergeDeltaIntoBase() {
  for (auto& [key, dlist] : delta_) {
    SidList& base = lists_[key];
    // Watermark invariant: every delta sid exceeds every base sid of this
    // index, so plain appends keep the base sorted.
    dlist.ForEach([&](Sid s) { base.Append(s); });
    base.Normalize();
  }
  delta_.clear();
}

void InvertedIndex::NormalizeLists() {
  for (auto& [key, list] : lists_) list.Normalize();
  for (auto& [key, list] : delta_) list.Normalize();
}

}  // namespace solap
