#include "solap/pattern/pattern_template.h"

#include <algorithm>

namespace solap {

const char* PatternKindName(PatternKind kind) {
  return kind == PatternKind::kSubstring ? "SUBSTRING" : "SUBSEQUENCE";
}

const char* CellRestrictionName(CellRestriction r) {
  switch (r) {
    case CellRestriction::kLeftMaxMatchedGo:
      return "LEFT-MAXIMALITY";
    case CellRestriction::kLeftMaxDataGo:
      return "LEFT-MAXIMALITY-DATA";
    case CellRestriction::kAllMatchedGo:
      return "ALL-MATCHED";
  }
  return "?";
}

Result<PatternTemplate> PatternTemplate::Make(PatternKind kind,
                                              std::vector<std::string> symbols,
                                              std::vector<PatternDim> dims) {
  if (symbols.empty()) {
    return Status::InvalidArgument("pattern template must have at least one "
                                   "symbol");
  }
  PatternTemplate t;
  t.kind_ = kind;
  t.symbols_ = std::move(symbols);
  t.dims_ = std::move(dims);
  t.dim_of_.resize(t.symbols_.size());
  t.first_pos_.assign(t.dims_.size(), -1);
  for (size_t pos = 0; pos < t.symbols_.size(); ++pos) {
    int d = -1;
    for (size_t i = 0; i < t.dims_.size(); ++i) {
      if (t.dims_[i].symbol == t.symbols_[pos]) {
        d = static_cast<int>(i);
        break;
      }
    }
    if (d < 0) {
      return Status::InvalidArgument("pattern symbol '" + t.symbols_[pos] +
                                     "' has no WITH ... AS declaration");
    }
    t.dim_of_[pos] = d;
    if (t.first_pos_[d] < 0) t.first_pos_[d] = static_cast<int>(pos);
  }
  t.positions_of_dim_.resize(t.dims_.size());
  for (size_t pos = 0; pos < t.dim_of_.size(); ++pos) {
    t.positions_of_dim_[t.dim_of_[pos]].push_back(
        static_cast<uint32_t>(pos));
  }
  for (size_t i = 0; i < t.dims_.size(); ++i) {
    if (t.first_pos_[i] < 0) {
      return Status::InvalidArgument("pattern dimension '" +
                                     t.dims_[i].symbol +
                                     "' never occurs in the template");
    }
  }
  return t;
}

bool PatternTemplate::HasRepeatedSymbols() const {
  return dim_of_.size() > dims_.size();
}

bool PatternTemplate::HasRestrictedDims() const {
  return std::any_of(dims_.begin(), dims_.end(),
                     [](const PatternDim& d) { return d.restricted(); });
}

PatternKey PatternTemplate::DimCodesOf(const PatternKey& position_key) const {
  PatternKey out(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    out[d] = position_key[first_pos_[d]];
  }
  return out;
}

std::string PatternTemplate::CanonicalString() const {
  std::string out = PatternKindName(kind_);
  out += "(";
  for (size_t i = 0; i < symbols_.size(); ++i) {
    if (i) out += ",";
    out += symbols_[i];
  }
  out += ")WITH";
  for (const PatternDim& d : dims_) {
    out += d.symbol + ":" + d.ref.ToString();
    if (!d.fixed_labels.empty()) {
      out += "=" + d.fixed_level + "[";
      for (const std::string& l : d.fixed_labels) out += l + ";";
      out += "]";
    }
    out += ",";
  }
  return out;
}

}  // namespace solap
