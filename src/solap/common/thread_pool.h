// Fixed-size worker pool: a bounded crew of threads draining a FIFO task
// queue. Deliberately minimal — admission control, deadlines and metrics
// live in QueryService, which composes this pool rather than burying
// policy inside it. The engine shares the same class for intra-query
// parallelism (CB scan partitions, II join/merge partitions); those two
// pools are distinct instances so a pool task never blocks on its own
// pool (see DESIGN.md "Threading model").
#ifndef SOLAP_COMMON_THREAD_POOL_H_
#define SOLAP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace solap {

/// \brief Fixed-size thread pool with a FIFO work queue.
///
/// Tasks submitted after Shutdown() are rejected (Submit returns false);
/// tasks already queued at Shutdown() are drained before the workers exit,
/// so a graceful stop never drops accepted work.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution by some worker. Returns false if the
  /// pool is shutting down (the task is not run).
  bool Submit(std::function<void()> task);

  /// Stops accepting work, drains the queue and joins all workers.
  /// Idempotent; also called by the destructor.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// \brief A fork/join scope over a ThreadPool: Submit N closures, Wait for
/// all of them. Tasks run inline on the calling thread when the pool is
/// null or rejects the submission (shutdown), so callers need no fallback
/// path and a batch can never deadlock on a missing worker.
///
/// The waiting thread must not itself be a worker of the same pool (the
/// engine's compute pool is therefore separate from the service's
/// admission pool).
class TaskBatch {
 public:
  explicit TaskBatch(ThreadPool* pool) : pool_(pool) {}
  ~TaskBatch() { Wait(); }

  TaskBatch(const TaskBatch&) = delete;
  TaskBatch& operator=(const TaskBatch&) = delete;

  /// Runs `task` on the pool, or inline when there is no pool to run it.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Idempotent.
  void Wait();

 private:
  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t outstanding_ = 0;
};

}  // namespace solap

#endif  // SOLAP_COMMON_THREAD_POOL_H_
