#include "solap/common/stats.h"

#include <sstream>

namespace solap {

std::string ScanStats::ToString() const {
  std::ostringstream os;
  const char* sep = "";
  for (const StatsField& f : kStatsFields) {
    os << sep << f.key << "=" << this->*f.member;
    sep = " ";
  }
  return os.str();
}

}  // namespace solap
