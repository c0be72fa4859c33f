#include "solap/common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace solap {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void TaskBatch::Submit(std::function<void()> task) {
  if (pool_ == nullptr) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  std::function<void()> wrapped = [this, task = std::move(task)] {
    task();
    std::lock_guard<std::mutex> lock(mu_);
    if (--outstanding_ == 0) cv_.notify_all();
  };
  if (!pool_->Submit(wrapped)) {
    wrapped();  // pool shutting down: run inline, retiring the reservation
  }
}

void TaskBatch::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace solap
