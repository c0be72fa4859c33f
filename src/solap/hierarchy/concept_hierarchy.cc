#include "solap/hierarchy/concept_hierarchy.h"

#include <algorithm>
#include <cstdio>

namespace solap {

ConceptHierarchy::ConceptHierarchy(std::vector<std::string> level_names)
    : level_names_(std::move(level_names)) {
  parents_.resize(level_names_.empty() ? 0 : level_names_.size() - 1);
  base_to_level_.resize(level_names_.size());
  level_dicts_.resize(level_names_.size());
  for (size_t l = 1; l < level_names_.size(); ++l) {
    level_dicts_[l] = std::make_unique<Dictionary>();
  }
}

int ConceptHierarchy::LevelIndex(const std::string& name) const {
  for (size_t i = 0; i < level_names_.size(); ++i) {
    if (level_names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Status ConceptHierarchy::SetParent(int level, const std::string& child,
                                   const std::string& parent) {
  if (level < 0 || level + 1 >= static_cast<int>(level_names_.size())) {
    return Status::OutOfRange("no level above level " + std::to_string(level));
  }
  std::lock_guard<std::mutex> lock(mu_);
  parents_[level][child] = parent;
  // Invalidate compiled mappings at and above level+1: parenthood changed.
  for (size_t l = level + 1; l < base_to_level_.size(); ++l) {
    base_to_level_[l].clear();
  }
  return Status::OK();
}

Code ConceptHierarchy::MapBaseCode(const Dictionary& base_dict, int level,
                                   Code base_code) {
  if (level == 0) return base_code;
  std::lock_guard<std::mutex> lock(mu_);
  return MapBaseCodeLocked(base_dict, level, base_code);
}

Code ConceptHierarchy::MapBaseCodeLocked(const Dictionary& base_dict,
                                         int level, Code base_code) {
  std::vector<Code>& compiled = base_to_level_[level];
  if (base_code < compiled.size()) return compiled[base_code];
  // Extend the compiled mapping up to the dictionary's current size.
  size_t old = compiled.size();
  compiled.resize(base_dict.size());
  for (size_t c = old; c < compiled.size(); ++c) {
    std::string name = base_dict.ValueOf(static_cast<Code>(c));
    for (int l = 0; l < level; ++l) {
      auto it = parents_[l].find(name);
      // Unmapped values roll up to themselves (catch-all semantics).
      if (it != parents_[l].end()) name = it->second;
    }
    compiled[c] = level_dicts_[level]->GetOrAdd(name);
  }
  return compiled[base_code];
}

std::string ConceptHierarchy::LabelOf(const Dictionary& base_dict, int level,
                                      Code code) const {
  if (level == 0) return base_dict.ValueOf(code);
  std::lock_guard<std::mutex> lock(mu_);
  return level_dicts_[level]->ValueOf(code);
}

Code ConceptHierarchy::LookupLabel(int level, const std::string& label) const {
  std::lock_guard<std::mutex> lock(mu_);
  return level_dicts_[level]->Lookup(label);
}

std::vector<Code> ConceptHierarchy::LevelToLevel(const Dictionary& base_dict,
                                                 int from_level,
                                                 int to_level) {
  std::vector<Code> table;
  std::lock_guard<std::mutex> lock(mu_);
  for (Code base = 0; base < base_dict.size(); ++base) {
    Code from = from_level == 0
                    ? base
                    : MapBaseCodeLocked(base_dict, from_level, base);
    Code to = to_level == 0 ? base
                            : MapBaseCodeLocked(base_dict, to_level, base);
    if (from >= table.size()) table.resize(from + 1, kNullCode);
    table[from] = to;
  }
  return table;
}

Result<CalendarLevel> ParseCalendarLevel(const std::string& level,
                                         const std::string& attr) {
  if (level == "day") return CalendarLevel::kDay;
  if (level == "week") return CalendarLevel::kWeek;
  if (level == "month") return CalendarLevel::kMonth;
  if (level == "time" || level == attr) return CalendarLevel::kRaw;
  return Status::InvalidArgument("unknown calendar level '" + level +
                                 "' for timestamp attribute '" + attr + "'");
}

namespace {

// Civil-from-days / days-from-civil (Howard Hinnant's algorithms, public
// domain), used for month bucketing and labels.
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *d = doy - (153 * mp + 2) / 5 + 1;
  *m = mp + (mp < 10 ? 3 : -9);
  *y = static_cast<int>(yy + (*m <= 2));
}

}  // namespace

Code CalendarBucket(int64_t ts_seconds, CalendarLevel level) {
  int64_t day = ts_seconds / 86400;
  switch (level) {
    case CalendarLevel::kRaw:
      return static_cast<Code>(ts_seconds);
    case CalendarLevel::kDay:
      return static_cast<Code>(day);
    case CalendarLevel::kWeek:
      // Epoch day 0 was a Thursday; shift so weeks start on Monday.
      return static_cast<Code>((day + 3) / 7);
    case CalendarLevel::kMonth: {
      int y;
      unsigned m, d;
      CivilFromDays(day, &y, &m, &d);
      return static_cast<Code>(y * 12 + static_cast<int>(m) - 1);
    }
  }
  return 0;
}

std::string CalendarLabel(Code bucket, CalendarLevel level) {
  char buf[32];
  switch (level) {
    case CalendarLevel::kRaw:
      return "t" + std::to_string(bucket);
    case CalendarLevel::kDay: {
      int y;
      unsigned m, d;
      CivilFromDays(static_cast<int64_t>(bucket), &y, &m, &d);
      std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", y, m, d);
      return buf;
    }
    case CalendarLevel::kWeek: {
      int64_t day = static_cast<int64_t>(bucket) * 7 - 3;
      int y;
      unsigned m, d;
      CivilFromDays(day, &y, &m, &d);
      std::snprintf(buf, sizeof(buf), "%04d-W%02u-%02u", y, m, d);
      return buf;
    }
    case CalendarLevel::kMonth: {
      int y = static_cast<int>(bucket) / 12;
      int m = static_cast<int>(bucket) % 12 + 1;
      std::snprintf(buf, sizeof(buf), "%04d-%02d", y, m);
      return buf;
    }
  }
  return "?";
}

int64_t MakeTimestamp(int year, int month, int day, int hour, int minute,
                      int second) {
  return DaysFromCivil(year, month, day) * 86400 + hour * 3600 + minute * 60 +
         second;
}

void HierarchyRegistry::Register(const std::string& attr,
                                 std::shared_ptr<ConceptHierarchy> hierarchy) {
  map_[attr] = std::move(hierarchy);
}

ConceptHierarchy* HierarchyRegistry::Find(const std::string& attr) const {
  auto it = map_.find(attr);
  return it == map_.end() ? nullptr : it->second.get();
}

}  // namespace solap
