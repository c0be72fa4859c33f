#include "solap/seq/sequence_query_engine.h"

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>

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

namespace {

// Appends the top-level AND conjuncts of `e` to `out`, left to right.
void Conjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->op() == ExprOp::kAnd) {
    Conjuncts(e->children()[0], out);
    Conjuncts(e->children()[1], out);
  } else {
    out->push_back(e);
  }
}

bool IsWindowConjunct(const Expr& e, const std::string& sequence_by) {
  switch (e.op()) {
    case ExprOp::kLt:
    case ExprOp::kLe:
    case ExprOp::kGt:
    case ExprOp::kGe:
      return e.children()[0]->op() == ExprOp::kColumn &&
             e.children()[0]->column() == sequence_by &&
             e.children()[1]->op() == ExprOp::kConst;
    default:
      return false;
  }
}

// Binds each of `refs` (CLUSTER BY or GROUP BY levels) against `table`.
Result<std::vector<DimensionBinding>> BindLevels(
    const EventTable& table, const HierarchyRegistry* hierarchies,
    const std::vector<LevelRef>& refs) {
  std::vector<DimensionBinding> out;
  for (const LevelRef& r : refs) {
    SOLAP_ASSIGN_OR_RETURN(
        DimensionBinding b,
        DimensionBinding::MakeForTable(table, hierarchies, r));
    out.push_back(std::move(b));
  }
  return out;
}

// The key of `row` under `bindings`: one level code per binding.
void KeyOf(const std::vector<DimensionBinding>& bindings,
           const EventTable& table, RowId row, CellKey* key) {
  key->resize(bindings.size());
  for (size_t i = 0; i < bindings.size(); ++i) {
    (*key)[i] = bindings[i].CodeOf(table, row);
  }
}

}  // namespace

std::optional<WindowSplit> SplitWindow(const Schema& schema,
                                       const SequenceSpec& spec) {
  if (spec.where == nullptr) return std::nullopt;
  const int order_col = schema.FieldIndex(spec.sequence_by);
  if (order_col < 0) return std::nullopt;
  const ValueType order_type = schema.field(order_col).type;
  if (order_type != ValueType::kInt64 && order_type != ValueType::kTimestamp) {
    return std::nullopt;
  }
  for (const LevelRef& g : spec.group_by) {
    if (std::find(spec.cluster_by.begin(), spec.cluster_by.end(), g) ==
        spec.cluster_by.end()) {
      return std::nullopt;
    }
  }
  std::vector<ExprPtr> conjuncts;
  Conjuncts(spec.where, &conjuncts);
  WindowSplit split;
  split.base = spec;
  split.base.where = nullptr;
  for (ExprPtr& c : conjuncts) {
    if (IsWindowConjunct(*c, spec.sequence_by)) {
      split.window.push_back(std::move(c));
    } else {
      split.base.where = split.base.where == nullptr
                             ? std::move(c)
                             : Expr::And(split.base.where, std::move(c));
    }
  }
  if (split.window.empty()) return std::nullopt;
  return split;
}

Result<std::shared_ptr<SequenceGroupSet>> SequenceQueryEngine::Build(
    const EventTable& table, const SequenceSpec& spec,
    const RowFilter* filter) {
  SOLAP_ASSIGN_OR_RETURN(std::vector<DimensionBinding> global_bindings,
                         BindLevels(table, hierarchies_, spec.group_by));
  auto set = std::make_shared<SequenceGroupSet>(&table, spec.group_by,
                                                std::move(global_bindings));
  // An empty set holds no cluster key, so the extension cannot refuse.
  SOLAP_RETURN_NOT_OK(Extend(table, spec, filter, *set, nullptr).status());
  return set;
}

Result<bool> SequenceQueryEngine::Extend(const EventTable& table,
                                         const SequenceSpec& spec,
                                         const RowFilter* filter,
                                         SequenceGroupSet& set,
                                         std::vector<GroupDelta>* touched) {
  if (spec.cluster_by.empty()) {
    return Status::InvalidArgument("CLUSTER BY must name at least one "
                                   "attribute");
  }
  // Bind clauses.
  ExprPtr where;
  if (spec.where != nullptr) {
    SOLAP_ASSIGN_OR_RETURN(where, spec.where->Bind(table.schema(), nullptr));
  }
  SOLAP_ASSIGN_OR_RETURN(std::vector<DimensionBinding> cluster_bindings,
                         BindLevels(table, hierarchies_, spec.cluster_by));
  SOLAP_ASSIGN_OR_RETURN(int order_col,
                         table.schema().RequireField(spec.sequence_by));
  ValueType order_type = table.schema().field(order_col).type;
  if (order_type != ValueType::kInt64 && order_type != ValueType::kTimestamp &&
      order_type != ValueType::kDouble) {
    return Status::InvalidArgument("SEQUENCE BY attribute '" +
                                   spec.sequence_by + "' must be numeric");
  }

  const size_t n = table.num_rows();
  if (set.formed_rows() >= n) return true;  // nothing appended since

  // Every cluster key the set already holds, read off each sequence's
  // first event (cluster values are functionally determined by the
  // cluster, so one row suffices).
  std::unordered_set<CellKey, CodeVecHash> existing;
  CellKey ckey;
  for (const SequenceGroup& group : set.groups()) {
    for (Sid s = 0; s < group.num_sequences(); ++s) {
      KeyOf(cluster_bindings, table, group.Rows(s).front(), &ckey);
      existing.insert(ckey);
    }
  }

  // Steps 1 + 2: select events and bucket them into clusters. An ordered map
  // keeps cluster (and therefore sid) assignment deterministic.
  std::map<CellKey, std::vector<RowId>> clusters;
  for (RowId row = static_cast<RowId>(set.formed_rows()); row < n; ++row) {
    if (filter != nullptr && !filter->Keep(table, row)) continue;
    if (where != nullptr && !where->EvalRow(table, row).AsBool()) {
      continue;
    }
    KeyOf(cluster_bindings, table, row, &ckey);
    if (existing.contains(ckey)) return false;
    clusters[ckey].push_back(row);
  }

  // Step 3: order each cluster by the SEQUENCE BY attribute (ties broken by
  // row order, i.e. stable).
  auto order_value = [&](RowId r) -> double {
    if (order_type == ValueType::kDouble) return table.DoubleAt(r, order_col);
    return static_cast<double>(table.Int64At(r, order_col));
  };

  std::map<size_t, Sid> old_counts;  // touched group -> old size
  CellKey gkey;
  for (auto& [key, rows] : clusters) {
    std::stable_sort(rows.begin(), rows.end(), [&](RowId a, RowId b) {
      double va = order_value(a), vb = order_value(b);
      return spec.ascending ? va < vb : vb < va;
    });
    // Step 4: the global dimension values of a sequence are shared by all of
    // its events (they are functionally determined by the cluster key), so
    // they are read off the first event.
    KeyOf(set.global_bindings(), table, rows.front(), &gkey);
    SequenceGroup& group = set.GroupFor(gkey);
    if (touched != nullptr) {
      // Identify the group by position (GroupFor may have just created it).
      old_counts.try_emplace(static_cast<size_t>(&group - set.groups().data()),
                             static_cast<Sid>(group.num_sequences()));
    }
    group.AddSequence(rows);
  }
  set.set_formed_rows(n);
  for (const auto& [gi, old_count] : old_counts) {
    touched->push_back(GroupDelta{gi, old_count});
  }
  return true;
}

Result<std::shared_ptr<SequenceGroupSet>> SequenceQueryEngine::Derive(
    const EventTable& table, const SequenceSpec& spec,
    const WindowSplit& split, SequenceGroupSet& base) {
  // A conjunct keeps the rows on one side of its literal, so along a
  // sequence sorted on its column it holds on a prefix ("upper" bounds
  // ascending, "lower" bounds descending) or on a suffix.
  std::vector<ExprPtr> prefix_conjuncts, suffix_conjuncts;
  for (const ExprPtr& c : split.window) {
    SOLAP_ASSIGN_OR_RETURN(ExprPtr bound, c->Bind(table.schema(), nullptr));
    const bool upper = c->op() == ExprOp::kLt || c->op() == ExprOp::kLe;
    (upper == spec.ascending ? prefix_conjuncts : suffix_conjuncts)
        .push_back(std::move(bound));
  }
  SOLAP_ASSIGN_OR_RETURN(int order_col,
                         table.schema().RequireField(spec.sequence_by));
  auto pass = [&](const std::vector<ExprPtr>& conjuncts, RowId row) {
    for (const ExprPtr& e : conjuncts) {
      if (!e->EvalRow(table, row).AsBool()) return false;
    }
    return true;
  };

  // Slice every base sequence, in base group and sid order.
  struct Sliced {
    const SequenceGroup* base_group;
    std::vector<std::span<const RowId>> slices;
    size_t events = 0;
  };
  std::vector<Sliced> kept;
  for (SequenceGroup& group : base.groups()) {
    // Only a sequence whose first event passes the prefix conjuncts and
    // whose last event passes the suffix conjuncts can keep a row: the
    // sids of a prefix of by_first and of a suffix of by_last.
    const auto order = group.EndpointOrderFor(order_col, spec.ascending);
    const size_t n = group.num_sequences();
    auto first_passes = [&](Sid s) {
      return pass(prefix_conjuncts, group.Rows(s).front());
    };
    auto last_fails = [&](Sid s) {
      return !pass(suffix_conjuncts, group.Rows(s).back());
    };
    const auto first_end = std::partition_point(
        order->by_first.begin(), order->by_first.end(), first_passes);
    const auto last_begin = std::partition_point(
        order->by_last.begin(), order->by_last.end(), last_fails);
    std::vector<uint8_t> hits(n, 0);
    for (auto it = order->by_first.begin(); it != first_end; ++it) {
      hits[*it] = 1;
    }
    for (auto it = last_begin; it != order->by_last.end(); ++it) {
      if (hits[*it] == 1) hits[*it] = 2;
    }

    Sliced out{&group, {}, 0};
    for (Sid s = 0; s < n; ++s) {
      if (hits[s] != 2) continue;
      // The first row passes the prefix conjuncts; cut where they stop.
      std::span<const RowId> rows = group.Rows(s);
      if (!pass(prefix_conjuncts, rows.back())) {
        rows = rows.first(static_cast<size_t>(
            std::partition_point(rows.begin() + 1, rows.end() - 1,
                                 [&](RowId r) {
                                   return pass(prefix_conjuncts, r);
                                 }) -
            rows.begin()));
        if (!pass(suffix_conjuncts, rows.back())) continue;
      }
      // The last row passes the suffix conjuncts; cut where they start.
      if (rows.size() > 1 && !pass(suffix_conjuncts, rows.front())) {
        rows = rows.subspan(static_cast<size_t>(
            std::partition_point(rows.begin() + 1, rows.end() - 1,
                                 [&](RowId r) {
                                   return !pass(suffix_conjuncts, r);
                                 }) -
            rows.begin()));
      }
      out.slices.push_back(rows);
      out.events += rows.size();
    }
    if (!out.slices.empty()) kept.push_back(std::move(out));
  }

  // Build creates groups in the order of their smallest cluster key, and
  // a freshly built base holds each group's sequences in cluster-key
  // order, so the derived groups order by their first kept sequence's key.
  if (kept.size() > 1) {
    SOLAP_ASSIGN_OR_RETURN(std::vector<DimensionBinding> cluster_bindings,
                           BindLevels(table, hierarchies_, spec.cluster_by));
    std::vector<std::pair<CellKey, size_t>> order(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) {
      KeyOf(cluster_bindings, table, kept[i].slices.front().front(),
            &order[i].first);
      order[i].second = i;
    }
    std::sort(order.begin(), order.end());
    std::vector<Sliced> sorted;
    sorted.reserve(kept.size());
    for (auto& [key, i] : order) sorted.push_back(std::move(kept[i]));
    kept = std::move(sorted);
  }

  auto set = std::make_shared<SequenceGroupSet>(&table, spec.group_by,
                                                base.global_bindings());
  for (const Sliced& k : kept) {
    SequenceGroup& group = set->GroupFor(k.base_group->key());
    group.Reserve(k.slices.size(), k.events);
    for (std::span<const RowId> rows : k.slices) group.AddSequence(rows);
  }
  set->set_formed_rows(base.formed_rows());
  return set;
}

}  // namespace solap
