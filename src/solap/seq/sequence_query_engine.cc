#include "solap/seq/sequence_query_engine.h"

#include <algorithm>
#include <map>

#include "solap/common/strings.h"

namespace solap {

std::string SequenceSpec::CanonicalString() const {
  std::string out = "where:";
  out += where ? where->ToString() : "-";
  out += "|cluster:";
  for (const LevelRef& r : cluster_by) out += r.ToString() + ",";
  out += "|seq:" + sequence_by + (ascending ? "+" : "-");
  out += "|group:";
  for (const LevelRef& r : group_by) out += r.ToString() + ",";
  return out;
}

Result<std::shared_ptr<SequenceGroupSet>> SequenceQueryEngine::Build(
    const EventTable& table, const SequenceSpec& spec,
    const RowFilter* filter) {
  if (spec.cluster_by.empty()) {
    return Status::InvalidArgument("CLUSTER BY must name at least one "
                                   "attribute");
  }
  // Bind clauses.
  ExprPtr where;
  if (spec.where != nullptr) {
    SOLAP_ASSIGN_OR_RETURN(where, spec.where->Bind(table.schema(), nullptr));
  }
  std::vector<DimensionBinding> cluster_bindings;
  for (const LevelRef& r : spec.cluster_by) {
    SOLAP_ASSIGN_OR_RETURN(
        DimensionBinding b,
        DimensionBinding::MakeForTable(table, hierarchies_, r));
    cluster_bindings.push_back(std::move(b));
  }
  std::vector<DimensionBinding> global_bindings;
  for (const LevelRef& r : spec.group_by) {
    SOLAP_ASSIGN_OR_RETURN(
        DimensionBinding b,
        DimensionBinding::MakeForTable(table, hierarchies_, r));
    global_bindings.push_back(std::move(b));
  }
  SOLAP_ASSIGN_OR_RETURN(int order_col,
                         table.schema().RequireField(spec.sequence_by));
  ValueType order_type = table.schema().field(order_col).type;
  if (order_type != ValueType::kInt64 && order_type != ValueType::kTimestamp &&
      order_type != ValueType::kDouble) {
    return Status::InvalidArgument("SEQUENCE BY attribute '" +
                                   spec.sequence_by + "' must be numeric");
  }

  // Steps 1 + 2: select events and bucket them into clusters. An ordered map
  // keeps cluster (and therefore sid) assignment deterministic.
  std::map<CellKey, std::vector<RowId>> clusters;
  const size_t n = table.num_rows();
  CellKey ckey(cluster_bindings.size());
  for (RowId row = 0; row < n; ++row) {
    if (filter != nullptr && !filter->Keep(table, row)) continue;
    if (where != nullptr && !where->EvalRow(table, row).AsBool()) {
      continue;
    }
    for (size_t i = 0; i < cluster_bindings.size(); ++i) {
      ckey[i] = cluster_bindings[i].CodeOf(table, row);
    }
    clusters[ckey].push_back(row);
  }

  // Step 3: order each cluster by the SEQUENCE BY attribute (ties broken by
  // row order, i.e. stable).
  auto order_value = [&](RowId r) -> double {
    if (order_type == ValueType::kDouble) return table.DoubleAt(r, order_col);
    return static_cast<double>(table.Int64At(r, order_col));
  };

  auto set = std::make_shared<SequenceGroupSet>(&table, spec.group_by,
                                                global_bindings);
  CellKey gkey(global_bindings.size());
  for (auto& [key, rows] : clusters) {
    std::stable_sort(rows.begin(), rows.end(), [&](RowId a, RowId b) {
      double va = order_value(a), vb = order_value(b);
      return spec.ascending ? va < vb : vb < va;
    });
    // Step 4: the global dimension values of a sequence are shared by all of
    // its events (they are functionally determined by the cluster key), so
    // they are read off the first event.
    for (size_t i = 0; i < global_bindings.size(); ++i) {
      gkey[i] = global_bindings[i].CodeOf(table, rows.front());
    }
    set->GroupFor(gkey).AddSequence(rows);
  }
  return set;
}

}  // namespace solap
