// Seqlock-style epoch gate for the streaming ingestion path (DESIGN.md §11,
// docs/INGESTION.md).
//
// One gate guards one engine's mutable state (event table, formed groups,
// index caches, cuboid repository). Readers — query executions — hold the
// gate SHARED for their whole execution and capture the epoch they ran
// against; writers — appends, retention eviction — hold it EXCLUSIVE for
// their commit. The epoch counter follows the seqlock
// convention: even while stable, odd while a writer is inside its critical
// section, +2 per committed mutation. A reader therefore always observes an
// even epoch, and two answers that report the same epoch saw byte-identical
// engine state — the invariant ingest_consistency_test checks.
//
// Unlike a true seqlock, readers do block (shared_mutex) instead of
// retrying: query executions are long and touch many structures, so an
// optimistic retry loop would re-run entire scans. The odd/even counter is
// kept anyway because it is cheap, gives writers-in-progress an observable
// signature in /metrics (`epoch` gauge), and lets assertions distinguish
// "read a stable snapshot" from "raced a commit".
#ifndef SOLAP_COMMON_EPOCH_H_
#define SOLAP_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>

namespace solap {

class EpochGate {
 public:
  /// Current epoch; even when no writer is inside its critical section.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Shared (reader) guard: queries hold one for their whole execution.
  /// The captured epoch is stable for the guard's lifetime.
  class ReadLock {
   public:
    explicit ReadLock(EpochGate& gate)
        : lock_(gate.mu_), epoch_(gate.epoch()) {}
    uint64_t epoch() const { return epoch_; }

   private:
    std::shared_lock<std::shared_mutex> lock_;
    uint64_t epoch_;
  };

  /// Exclusive (writer) guard: the epoch goes odd on entry and lands two
  /// above its starting value on exit. Abandon() rolls the counter back to
  /// even without advancing it — for writers that turned out to be no-ops
  /// (e.g. a zero-row append), so "the epoch changed" always means "the
  /// observable state may have changed".
  class WriteLock {
   public:
    explicit WriteLock(EpochGate& gate) : gate_(gate), lock_(gate.mu_) {
      gate_.epoch_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~WriteLock() {
      gate_.epoch_.fetch_add(abandoned_ ? -1 : 1, std::memory_order_acq_rel);
    }
    /// The epoch readers will observe after this commit.
    uint64_t committed_epoch() const {
      return gate_.epoch_.load(std::memory_order_relaxed) + 1;
    }
    void Abandon() { abandoned_ = true; }

    WriteLock(const WriteLock&) = delete;
    WriteLock& operator=(const WriteLock&) = delete;

   private:
    EpochGate& gate_;
    std::unique_lock<std::shared_mutex> lock_;
    bool abandoned_ = false;
  };

 private:
  std::shared_mutex mu_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace solap

#endif  // SOLAP_COMMON_EPOCH_H_
