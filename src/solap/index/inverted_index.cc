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
  return bytes;
}

void InvertedIndex::NormalizeLists() {
  for (auto& [key, list] : lists_) list.Normalize();
}

}  // namespace solap
