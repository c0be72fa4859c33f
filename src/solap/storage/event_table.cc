#include "solap/storage/event_table.h"

#include <sstream>

namespace solap {

EventTable::EventTable(Schema schema) : schema_(std::move(schema)) {
  size_t n = schema_.num_fields();
  code_cols_.resize(n);
  int_cols_.resize(n);
  dbl_cols_.resize(n);
  dicts_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (schema_.field(i).type == ValueType::kString) {
      dicts_[i] = std::make_shared<Dictionary>();
    }
  }
}

Status EventTable::ValidateRow(const std::vector<Value>& values) const {
  if (values.size() != schema_.num_fields()) {
    std::ostringstream os;
    os << "row arity " << values.size() << " != schema arity "
       << schema_.num_fields();
    return Status::InvalidArgument(os.str());
  }
  for (size_t i = 0; i < values.size(); ++i) {
    const Field& f = schema_.field(i);
    const Value& v = values[i];
    switch (f.type) {
      case ValueType::kString:
        if (v.type() != ValueType::kString) {
          return Status::InvalidArgument("column '" + f.name +
                                         "' expects string, got " +
                                         ValueTypeName(v.type()));
        }
        break;
      case ValueType::kInt64:
      case ValueType::kTimestamp:
        if (v.type() != ValueType::kInt64 &&
            v.type() != ValueType::kTimestamp) {
          return Status::InvalidArgument("column '" + f.name +
                                         "' expects integer, got " +
                                         ValueTypeName(v.type()));
        }
        break;
      case ValueType::kDouble:
        if (v.type() != ValueType::kDouble && v.type() != ValueType::kInt64) {
          return Status::InvalidArgument("column '" + f.name +
                                         "' expects double, got " +
                                         ValueTypeName(v.type()));
        }
        break;
      case ValueType::kNull:
        return Status::InvalidArgument("column '" + f.name +
                                       "' has null type");
    }
  }
  return Status::OK();
}

Status EventTable::AppendRow(const std::vector<Value>& values) {
  SOLAP_RETURN_NOT_OK(ValidateRow(values));
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& v = values[i];
    switch (schema_.field(i).type) {
      case ValueType::kString:
        code_cols_[i].push_back(dicts_[i]->GetOrAdd(v.str()));
        break;
      case ValueType::kInt64:
      case ValueType::kTimestamp:
        int_cols_[i].push_back(v.int64());
        break;
      case ValueType::kDouble:
        dbl_cols_[i].push_back(v.type() == ValueType::kDouble
                                   ? v.dbl()
                                   : static_cast<double>(v.int64()));
        break;
      case ValueType::kNull:
        break;
    }
  }
  ++num_rows_;
  return Status::OK();
}

Status EventTable::Append(const std::vector<std::vector<Value>>& rows) {
  if (rows.empty()) return Status::OK();  // no-op: the epoch does not move
  // Validate-all-first: a bad row anywhere rejects the whole batch before
  // any column (or dictionary) is touched, so the table never holds a
  // partially applied batch.
  for (const std::vector<Value>& row : rows) {
    SOLAP_RETURN_NOT_OK(ValidateRow(row));
  }
  for (const std::vector<Value>& row : rows) {
    Status s = AppendRow(row);
    // Unreachable after validation, but never bump the epoch on a torn
    // batch should AppendRow grow a new failure mode.
    if (!s.ok()) return s;
  }
  ++epoch_;
  return Status::OK();
}

std::vector<std::string> EventTable::DictionaryTail(int col,
                                                    size_t from) const {
  std::vector<std::string> tail;
  if (!dicts_[col]) return tail;
  const size_t n = dicts_[col]->size();
  tail.reserve(n > from ? n - from : 0);
  for (size_t c = from; c < n; ++c) {
    tail.push_back(dicts_[col]->ValueOf(static_cast<Code>(c)));
  }
  return tail;
}

Status EventTable::SyncDictionary(int col, size_t from,
                                  const std::vector<std::string>& values) {
  if (!dicts_[col]) {
    return Status::InvalidArgument("column " + std::to_string(col) +
                                   " is not dictionary-encoded");
  }
  Dictionary& dict = *dicts_[col];
  for (size_t i = 0; i < values.size(); ++i) {
    const size_t want = from + i;
    if (want < dict.size()) {
      // Overlap with entries this replica already holds (idempotent
      // retries): verify, don't re-insert.
      if (dict.ValueOf(static_cast<Code>(want)) != values[i]) {
        return Status::InvalidArgument(
            "dictionary sync diverged at code " + std::to_string(want) +
            ": have '" + dict.ValueOf(static_cast<Code>(want)) + "', got '" +
            values[i] + "'");
      }
      continue;
    }
    if (want != dict.size()) {
      return Status::InvalidArgument(
          "dictionary sync gap: tail starts at code " + std::to_string(want) +
          " but dictionary has " + std::to_string(dict.size()) + " entries");
    }
    if (dict.GetOrAdd(values[i]) != static_cast<Code>(want)) {
      return Status::InvalidArgument("dictionary sync diverged: '" +
                                     values[i] +
                                     "' already coded differently");
    }
  }
  return Status::OK();
}

std::vector<std::unique_ptr<EventTable>> EventTable::PartitionRows(
    size_t num_shards, const std::function<size_t(RowId)>& shard_of) const {
  std::vector<std::unique_ptr<EventTable>> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto t = std::make_unique<EventTable>(schema_);
    // Share the dictionaries: AppendRow would re-encode values in
    // first-seen order, giving each slice a private code space.
    t->dicts_ = dicts_;
    shards.push_back(std::move(t));
  }
  CopyRowsInto(0, shards, shard_of);
  return shards;
}

void EventTable::CopyRowsInto(
    RowId from, const std::vector<std::unique_ptr<EventTable>>& slices,
    const std::function<size_t(RowId)>& shard_of) const {
  const size_t n = schema_.num_fields();
  for (RowId r = from; r < num_rows_; ++r) {
    EventTable& t = *slices[shard_of(r) % slices.size()];
    for (size_t c = 0; c < n; ++c) {
      switch (schema_.field(c).type) {
        case ValueType::kString:
          t.code_cols_[c].push_back(code_cols_[c][r]);
          break;
        case ValueType::kInt64:
        case ValueType::kTimestamp:
          t.int_cols_[c].push_back(int_cols_[c][r]);
          break;
        case ValueType::kDouble:
          t.dbl_cols_[c].push_back(dbl_cols_[c][r]);
          break;
        case ValueType::kNull:
          break;
      }
    }
    ++t.num_rows_;
  }
}

Value EventTable::GetValue(RowId row, int col) const {
  const Field& f = schema_.field(col);
  switch (f.type) {
    case ValueType::kString:
      return Value::String(dicts_[col]->ValueOf(code_cols_[col][row]));
    case ValueType::kInt64:
      return Value::Int64(int_cols_[col][row]);
    case ValueType::kTimestamp:
      return Value::Timestamp(int_cols_[col][row]);
    case ValueType::kDouble:
      return Value::Double(dbl_cols_[col][row]);
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

}  // namespace solap
