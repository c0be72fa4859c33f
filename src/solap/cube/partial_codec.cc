#include "solap/cube/partial_codec.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "solap/parser/parser.h"
#include "solap/storage/io.h"

namespace solap {

namespace {

using net::JsonString;
using net::JsonValue;

// --- bit-pattern doubles --------------------------------------------------

std::string HexBits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return std::string(buf, 16);
}

Result<double> BitsFromHex(const std::string& s) {
  if (s.size() != 16) {
    return Status::ParseError("bit-pattern double must be 16 hex digits");
  }
  uint64_t bits = 0;
  for (char c : s) {
    uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return Status::ParseError("bit-pattern double has non-hex digit");
    }
    bits = (bits << 4) | nibble;
  }
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// --- enum <-> name --------------------------------------------------------

Result<AggKind> AggKindFromName(const std::string& name) {
  for (AggKind k : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                    AggKind::kMin, AggKind::kMax}) {
    if (name == AggKindName(k)) return k;
  }
  return Status::ParseError("unknown aggregate kind: " + name);
}

Result<PatternKind> PatternKindFromName(const std::string& name) {
  for (PatternKind k : {PatternKind::kSubstring, PatternKind::kSubsequence}) {
    if (name == PatternKindName(k)) return k;
  }
  return Status::ParseError("unknown pattern kind: " + name);
}

Result<CellRestriction> RestrictionFromName(const std::string& name) {
  for (CellRestriction r :
       {CellRestriction::kLeftMaxMatchedGo, CellRestriction::kLeftMaxDataGo,
        CellRestriction::kAllMatchedGo}) {
    if (name == CellRestrictionName(r)) return r;
  }
  return Status::ParseError("unknown cell restriction: " + name);
}

// --- small decode helpers -------------------------------------------------

Result<Code> CodeFrom(const JsonValue& v, const char* what) {
  if (!v.IsInt() || v.i < 0 || v.i > static_cast<int64_t>(UINT32_MAX)) {
    return Status::ParseError(std::string(what) +
                              " must be an integer in the code range");
  }
  return static_cast<Code>(v.i);
}

Result<uint64_t> StatField(const JsonValue& obj, const char* key) {
  SOLAP_ASSIGN_OR_RETURN(int64_t v, obj.RequireInt(key));
  if (v < 0) {
    return Status::ParseError(std::string("stats field ") + key +
                              " is negative");
  }
  return static_cast<uint64_t>(v);
}

Result<std::vector<std::string>> StringArray(const JsonValue& arr,
                                             const char* what) {
  std::vector<std::string> out;
  out.reserve(arr.items.size());
  for (const JsonValue& item : arr.items) {
    if (!item.IsString()) {
      return Status::ParseError(std::string(what) + " must hold strings");
    }
    out.push_back(item.s);
  }
  return out;
}

void AppendStringArray(std::ostringstream& os,
                       const std::vector<std::string>& items) {
  os << "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i != 0) os << ",";
    os << JsonString(items[i]);
  }
  os << "]";
}

Result<LevelRef> LevelRefFrom(const JsonValue& v, const char* what) {
  if (!v.IsArray() || v.items.size() != 2 || !v.items[0].IsString() ||
      !v.items[1].IsString()) {
    return Status::ParseError(std::string(what) +
                              " must be an [attr, level] pair");
  }
  return LevelRef{v.items[0].s, v.items[1].s};
}

void AppendLevelRef(std::ostringstream& os, const LevelRef& ref) {
  os << "[" << JsonString(ref.attr) << "," << JsonString(ref.level) << "]";
}

// Expressions travel as Expr::ToString text — the canonical, re-parseable
// form (parser/parser.h ParseExpression) — or JSON null when absent.
void AppendExpr(std::ostringstream& os, const ExprPtr& e) {
  if (e == nullptr) {
    os << "null";
  } else {
    os << JsonString(e->ToString());
  }
}

Result<ExprPtr> ExprFrom(const JsonValue& v, const char* what) {
  if (v.IsNull()) return ExprPtr{};
  if (!v.IsString()) {
    return Status::ParseError(std::string(what) +
                              " must be an expression string or null");
  }
  Result<ExprPtr> parsed = ParseExpression(v.s);
  if (!parsed.ok()) {
    return Status::ParseError(std::string(what) + ": " +
                              parsed.status().message());
  }
  return parsed;
}

// --- ScanStats ------------------------------------------------------------

// Encode and decode walk the one counter table (common/stats.h), so the
// wire carries every ScanStats field.
void AppendStats(std::ostringstream& os, const ScanStats& stats) {
  os << "{";
  bool first = true;
  for (const StatsField& f : kStatsFields) {
    if (!first) os << ",";
    first = false;
    os << "\"" << f.key << "\":" << stats.*(f.member);
  }
  os << "}";
}

Result<ScanStats> StatsFrom(const JsonValue& v) {
  if (!v.IsObject()) {
    return Status::ParseError("stats must be an object");
  }
  ScanStats stats;
  for (const StatsField& f : kStatsFields) {
    SOLAP_ASSIGN_OR_RETURN(stats.*(f.member), StatField(v, f.key));
  }
  return stats;
}

}  // namespace

// --- partial --------------------------------------------------------------

std::string EncodeShardPartial(const SCuboid& cuboid, const ScanStats& stats) {
  std::ostringstream payload;
  payload << "{\"agg\":" << JsonString(AggKindName(cuboid.agg()));

  payload << ",\"dims\":[";
  for (size_t i = 0; i < cuboid.dims().size(); ++i) {
    const DimDescriptor& d = cuboid.dims()[i];
    if (i != 0) payload << ",";
    payload << "{\"name\":" << JsonString(d.name)
            << ",\"attr\":" << JsonString(d.ref.attr)
            << ",\"level\":" << JsonString(d.ref.level)
            << ",\"pat\":" << (d.is_pattern ? "true" : "false") << "}";
  }
  payload << "]";

  // Sorted cells: encoding must be a pure function of content, not of
  // hash-map iteration order.
  std::vector<std::pair<CellKey, CellValue>> cells(cuboid.cells().begin(),
                                                   cuboid.cells().end());
  std::sort(cells.begin(), cells.end(),
            [](const auto& a, const auto& b) {
              return std::lexicographical_compare(a.first.begin(),
                                                  a.first.end(),
                                                  b.first.begin(),
                                                  b.first.end());
            });
  payload << ",\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) payload << ",";
    payload << "{\"k\":[";
    for (size_t j = 0; j < cells[i].first.size(); ++j) {
      if (j != 0) payload << ",";
      payload << cells[i].first[j];
    }
    const CellValue& cv = cells[i].second;
    payload << "],\"c\":" << cv.count << ",\"s\":\"" << HexBits(cv.sum)
            << "\",\"mn\":\"" << HexBits(cv.min) << "\",\"mx\":\""
            << HexBits(cv.max) << "\"}";
  }
  payload << "]";

  payload << ",\"labels\":[";
  for (size_t dim = 0; dim < cuboid.labels().size(); ++dim) {
    if (dim != 0) payload << ",";
    std::vector<std::pair<Code, std::string>> entries(
        cuboid.labels()[dim].begin(), cuboid.labels()[dim].end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    payload << "[";
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i != 0) payload << ",";
      payload << "[" << entries[i].first << ","
              << JsonString(entries[i].second) << "]";
    }
    payload << "]";
  }
  payload << "]";

  payload << ",\"stats\":";
  AppendStats(payload, stats);
  payload << "}";

  return EncodeShardEnvelope(payload.str());
}

std::string EncodeShardEnvelope(const std::string& payload) {
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::ostringstream out;
  out << "{\"v\":" << kShardWireVersion << ",\"crc\":" << crc
      << ",\"payload\":" << payload << "}";
  return out.str();
}

Result<std::string_view> DecodeShardEnvelope(std::string_view text) {
  // Envelope prefix is rigid so the payload substring — the CRC'd bytes —
  // can be recovered exactly. `v` and `crc` are digit-only, so no content
  // can fake the `,"payload":` boundary.
  auto eat = [&text](std::string_view want) -> bool {
    if (text.substr(0, want.size()) != want) return false;
    text.remove_prefix(want.size());
    return true;
  };
  auto digits = [&text](int64_t* out) -> bool {
    size_t n = 0;
    int64_t v = 0;
    while (n < text.size() && text[n] >= '0' && text[n] <= '9') {
      if (v > (INT64_MAX - 9) / 10) return false;
      v = v * 10 + (text[n] - '0');
      ++n;
    }
    if (n == 0) return false;
    text.remove_prefix(n);
    *out = v;
    return true;
  };

  int64_t version = 0;
  int64_t crc_claim = 0;
  if (!eat("{\"v\":") || !digits(&version) || !eat(",\"crc\":") ||
      !digits(&crc_claim) || !eat(",\"payload\":")) {
    return Status::ParseError("malformed shard envelope");
  }
  if (version != kShardWireVersion) {
    return Status::ParseError("shard wire version mismatch: got " +
                              std::to_string(version) + ", want " +
                              std::to_string(kShardWireVersion));
  }
  if (text.empty() || text.back() != '}') {
    return Status::ParseError("malformed shard envelope");
  }
  const std::string_view body = text.substr(0, text.size() - 1);

  // Integrity before structure: a torn or bit-flipped message must fail
  // here, not surface as half-plausible content.
  const uint32_t crc = Crc32(body.data(), body.size());
  if (crc_claim != static_cast<int64_t>(crc)) {
    return Status::ParseError("shard envelope CRC mismatch");
  }
  return body;
}

Result<ShardPartial> DecodeShardPartial(std::string_view text) {
  SOLAP_ASSIGN_OR_RETURN(std::string_view body, DecodeShardEnvelope(text));
  SOLAP_ASSIGN_OR_RETURN(JsonValue root, net::JsonParse(body));
  if (!root.IsObject()) {
    return Status::ParseError("shard partial payload must be an object");
  }

  SOLAP_ASSIGN_OR_RETURN(std::string agg_name, root.RequireString("agg"));
  SOLAP_ASSIGN_OR_RETURN(AggKind agg, AggKindFromName(agg_name));

  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* dims_v,
      root.Require("dims", JsonValue::Kind::kArray));
  std::vector<DimDescriptor> dims;
  dims.reserve(dims_v->items.size());
  for (const JsonValue& dv : dims_v->items) {
    if (!dv.IsObject()) {
      return Status::ParseError("dimension descriptor must be an object");
    }
    DimDescriptor d;
    SOLAP_ASSIGN_OR_RETURN(d.name, dv.RequireString("name"));
    SOLAP_ASSIGN_OR_RETURN(d.ref.attr, dv.RequireString("attr"));
    SOLAP_ASSIGN_OR_RETURN(d.ref.level, dv.RequireString("level"));
    SOLAP_ASSIGN_OR_RETURN(const JsonValue* pat,
                           dv.Require("pat", JsonValue::Kind::kBool));
    d.is_pattern = pat->b;
    dims.push_back(std::move(d));
  }
  const size_t width = dims.size();

  ShardPartial out;
  out.cuboid = std::make_shared<SCuboid>(std::move(dims), agg);

  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* cells_v,
      root.Require("cells", JsonValue::Kind::kArray));
  for (const JsonValue& cv : cells_v->items) {
    if (!cv.IsObject()) {
      return Status::ParseError("cell must be an object");
    }
    SOLAP_ASSIGN_OR_RETURN(const JsonValue* key_v,
                           cv.Require("k", JsonValue::Kind::kArray));
    if (key_v->items.size() != width) {
      return Status::ParseError(
          "cell key width does not match dimension count");
    }
    CellKey key;
    for (const JsonValue& code_v : key_v->items) {
      SOLAP_ASSIGN_OR_RETURN(Code code, CodeFrom(code_v, "cell key code"));
      key.push_back(code);
    }
    CellValue value;
    SOLAP_ASSIGN_OR_RETURN(value.count, cv.RequireInt("c"));
    if (value.count < 0) {
      return Status::ParseError("cell count is negative");
    }
    SOLAP_ASSIGN_OR_RETURN(std::string sum_hex, cv.RequireString("s"));
    SOLAP_ASSIGN_OR_RETURN(std::string min_hex, cv.RequireString("mn"));
    SOLAP_ASSIGN_OR_RETURN(std::string max_hex, cv.RequireString("mx"));
    SOLAP_ASSIGN_OR_RETURN(value.sum, BitsFromHex(sum_hex));
    SOLAP_ASSIGN_OR_RETURN(value.min, BitsFromHex(min_hex));
    SOLAP_ASSIGN_OR_RETURN(value.max, BitsFromHex(max_hex));
    if (out.cuboid->cells().count(key) != 0) {
      return Status::ParseError("duplicate cell key in shard partial");
    }
    out.cuboid->MergeCell(key, value);
  }

  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* labels_v,
      root.Require("labels", JsonValue::Kind::kArray));
  if (labels_v->items.size() > width) {
    return Status::ParseError("more label dictionaries than dimensions");
  }
  for (size_t dim = 0; dim < labels_v->items.size(); ++dim) {
    const JsonValue& dict = labels_v->items[dim];
    if (!dict.IsArray()) {
      return Status::ParseError("label dictionary must be an array");
    }
    for (const JsonValue& entry : dict.items) {
      if (!entry.IsArray() || entry.items.size() != 2 ||
          !entry.items[1].IsString()) {
        return Status::ParseError(
            "label entry must be a [code, label] pair");
      }
      SOLAP_ASSIGN_OR_RETURN(Code code,
                             CodeFrom(entry.items[0], "label code"));
      out.cuboid->SetLabel(dim, code, entry.items[1].s);
    }
  }

  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* stats_v,
      root.Require("stats", JsonValue::Kind::kObject));
  SOLAP_ASSIGN_OR_RETURN(out.stats, StatsFrom(*stats_v));
  return out;
}

// --- spec -----------------------------------------------------------------

std::string EncodeCuboidSpec(const CuboidSpec& spec) {
  std::ostringstream os;
  os << "{\"agg\":" << JsonString(AggKindName(spec.agg))
     << ",\"measure\":" << JsonString(spec.measure);

  os << ",\"where\":";
  AppendExpr(os, spec.seq.where);

  os << ",\"cluster_by\":[";
  for (size_t i = 0; i < spec.seq.cluster_by.size(); ++i) {
    if (i != 0) os << ",";
    AppendLevelRef(os, spec.seq.cluster_by[i]);
  }
  os << "],\"sequence_by\":" << JsonString(spec.seq.sequence_by)
     << ",\"ascending\":" << (spec.seq.ascending ? "true" : "false");

  os << ",\"group_by\":[";
  for (size_t i = 0; i < spec.seq.group_by.size(); ++i) {
    if (i != 0) os << ",";
    AppendLevelRef(os, spec.seq.group_by[i]);
  }
  os << "]";

  os << ",\"slices\":[";
  for (size_t i = 0; i < spec.global_slices.size(); ++i) {
    const GlobalSlice& s = spec.global_slices[i];
    if (i != 0) os << ",";
    os << "{\"ref\":";
    AppendLevelRef(os, s.ref);
    os << ",\"labels\":";
    AppendStringArray(os, s.labels);
    os << "}";
  }
  os << "]";

  os << ",\"kind\":" << JsonString(PatternKindName(spec.kind))
     << ",\"symbols\":";
  AppendStringArray(os, spec.symbols);
  os << ",\"regex\":" << JsonString(spec.regex);

  os << ",\"dims\":[";
  for (size_t i = 0; i < spec.dims.size(); ++i) {
    const PatternDim& d = spec.dims[i];
    if (i != 0) os << ",";
    os << "{\"symbol\":" << JsonString(d.symbol) << ",\"ref\":";
    AppendLevelRef(os, d.ref);
    os << ",\"fixed_labels\":";
    AppendStringArray(os, d.fixed_labels);
    os << ",\"fixed_level\":" << JsonString(d.fixed_level) << "}";
  }
  os << "]";

  os << ",\"restriction\":"
     << JsonString(CellRestrictionName(spec.restriction))
     << ",\"placeholders\":";
  AppendStringArray(os, spec.placeholders);

  os << ",\"predicate\":";
  AppendExpr(os, spec.predicate);

  os << ",\"iceberg\":";
  if (spec.iceberg_min_count.has_value()) {
    os << *spec.iceberg_min_count;
  } else {
    os << "null";
  }
  os << "}";
  return os.str();
}

Result<CuboidSpec> DecodeCuboidSpec(const JsonValue& v) {
  if (!v.IsObject()) {
    return Status::ParseError("cuboid spec must be an object");
  }
  CuboidSpec spec;

  SOLAP_ASSIGN_OR_RETURN(std::string agg_name, v.RequireString("agg"));
  SOLAP_ASSIGN_OR_RETURN(spec.agg, AggKindFromName(agg_name));
  SOLAP_ASSIGN_OR_RETURN(spec.measure, v.RequireString("measure"));

  const JsonValue* where = v.Find("where");
  if (where == nullptr) {
    return Status::ParseError("cuboid spec missing where");
  }
  SOLAP_ASSIGN_OR_RETURN(spec.seq.where, ExprFrom(*where, "where"));

  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* cluster_v,
      v.Require("cluster_by", JsonValue::Kind::kArray));
  for (const JsonValue& ref_v : cluster_v->items) {
    SOLAP_ASSIGN_OR_RETURN(LevelRef ref, LevelRefFrom(ref_v, "cluster_by"));
    spec.seq.cluster_by.push_back(std::move(ref));
  }
  SOLAP_ASSIGN_OR_RETURN(spec.seq.sequence_by,
                         v.RequireString("sequence_by"));
  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* asc_v,
      v.Require("ascending", JsonValue::Kind::kBool));
  spec.seq.ascending = asc_v->b;

  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* group_v,
      v.Require("group_by", JsonValue::Kind::kArray));
  for (const JsonValue& ref_v : group_v->items) {
    SOLAP_ASSIGN_OR_RETURN(LevelRef ref, LevelRefFrom(ref_v, "group_by"));
    spec.seq.group_by.push_back(std::move(ref));
  }

  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* slices_v,
      v.Require("slices", JsonValue::Kind::kArray));
  for (const JsonValue& sv : slices_v->items) {
    if (!sv.IsObject()) {
      return Status::ParseError("slice must be an object");
    }
    GlobalSlice slice;
    const JsonValue* ref_v = sv.Find("ref");
    if (ref_v == nullptr) {
      return Status::ParseError("slice missing ref");
    }
    SOLAP_ASSIGN_OR_RETURN(slice.ref, LevelRefFrom(*ref_v, "slice ref"));
    SOLAP_ASSIGN_OR_RETURN(
        const JsonValue* labels_v,
        sv.Require("labels", JsonValue::Kind::kArray));
    SOLAP_ASSIGN_OR_RETURN(slice.labels,
                           StringArray(*labels_v, "slice labels"));
    spec.global_slices.push_back(std::move(slice));
  }

  SOLAP_ASSIGN_OR_RETURN(std::string kind_name, v.RequireString("kind"));
  SOLAP_ASSIGN_OR_RETURN(spec.kind, PatternKindFromName(kind_name));
  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* symbols_v,
      v.Require("symbols", JsonValue::Kind::kArray));
  SOLAP_ASSIGN_OR_RETURN(spec.symbols, StringArray(*symbols_v, "symbols"));
  SOLAP_ASSIGN_OR_RETURN(spec.regex, v.RequireString("regex"));

  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* dims_v,
      v.Require("dims", JsonValue::Kind::kArray));
  for (const JsonValue& dv : dims_v->items) {
    if (!dv.IsObject()) {
      return Status::ParseError("pattern dimension must be an object");
    }
    PatternDim dim;
    SOLAP_ASSIGN_OR_RETURN(dim.symbol, dv.RequireString("symbol"));
    const JsonValue* ref_v = dv.Find("ref");
    if (ref_v == nullptr) {
      return Status::ParseError("pattern dimension missing ref");
    }
    SOLAP_ASSIGN_OR_RETURN(dim.ref, LevelRefFrom(*ref_v, "dim ref"));
    SOLAP_ASSIGN_OR_RETURN(
        const JsonValue* fixed_v,
        dv.Require("fixed_labels", JsonValue::Kind::kArray));
    SOLAP_ASSIGN_OR_RETURN(dim.fixed_labels,
                           StringArray(*fixed_v, "fixed_labels"));
    SOLAP_ASSIGN_OR_RETURN(dim.fixed_level, dv.RequireString("fixed_level"));
    spec.dims.push_back(std::move(dim));
  }

  SOLAP_ASSIGN_OR_RETURN(std::string restriction_name,
                         v.RequireString("restriction"));
  SOLAP_ASSIGN_OR_RETURN(spec.restriction,
                         RestrictionFromName(restriction_name));
  SOLAP_ASSIGN_OR_RETURN(
      const JsonValue* ph_v,
      v.Require("placeholders", JsonValue::Kind::kArray));
  SOLAP_ASSIGN_OR_RETURN(spec.placeholders,
                         StringArray(*ph_v, "placeholders"));

  const JsonValue* pred = v.Find("predicate");
  if (pred == nullptr) {
    return Status::ParseError("cuboid spec missing predicate");
  }
  SOLAP_ASSIGN_OR_RETURN(spec.predicate, ExprFrom(*pred, "predicate"));

  const JsonValue* iceberg = v.Find("iceberg");
  if (iceberg == nullptr) {
    return Status::ParseError("cuboid spec missing iceberg");
  }
  if (!iceberg->IsNull()) {
    if (!iceberg->IsInt() || iceberg->i < 0) {
      return Status::ParseError(
          "iceberg must be null or a non-negative integer");
    }
    spec.iceberg_min_count = iceberg->i;
  }
  return spec;
}

Result<CuboidSpec> DecodeCuboidSpecText(std::string_view text) {
  SOLAP_ASSIGN_OR_RETURN(JsonValue root, net::JsonParse(text));
  return DecodeCuboidSpec(root);
}

}  // namespace solap
