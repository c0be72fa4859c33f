// Memory governor: a single byte budget shared by everything the engine
// keeps resident or allocates in bulk — cached inverted indices, formed
// sequence groups, the cuboid repository, and transient II join scratch.
// Charges that would exceed the budget fail with ResourceExhausted instead
// of letting the process run into bad_alloc / the OOM killer; the engine
// reacts by skipping the cache or degrading the query to the CB path (see
// DESIGN.md "Robustness & fault model").
#ifndef SOLAP_COMMON_MEM_BUDGET_H_
#define SOLAP_COMMON_MEM_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "solap/common/status.h"

namespace solap {

/// \brief Atomic byte-budget accountant.
///
/// Thread-safe; all methods are lock-free. A budget of 0 means unlimited —
/// charges always succeed but are still counted, so `used()` stays
/// meaningful for metrics either way.
class MemoryGovernor {
 public:
  MemoryGovernor() = default;
  explicit MemoryGovernor(size_t budget_bytes) : budget_(budget_bytes) {}

  /// Reserves `bytes` against the budget. Returns ResourceExhausted (and
  /// counts a reject) when the reservation would exceed it; `what` names
  /// the consumer in the error message. Never over-reserves: a failed
  /// charge leaves `used()` untouched.
  Status TryCharge(size_t bytes, const char* what);

  /// Returns a previously successful charge. Saturates at zero rather than
  /// underflowing if a caller double-releases.
  void Release(size_t bytes);

  size_t budget() const { return budget_.load(std::memory_order_relaxed); }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t rejects() const { return rejects_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> budget_{0};
  std::atomic<size_t> used_{0};
  std::atomic<uint64_t> rejects_{0};
};

}  // namespace solap

#endif  // SOLAP_COMMON_MEM_BUDGET_H_
