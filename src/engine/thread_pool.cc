#include "engine/thread_pool.h"

#include <algorithm>
#include <utility>

namespace osd {

ThreadPool::ThreadPool(int num_threads, size_t queue_capacity)
    : capacity_(std::max<size_t>(queue_capacity, 1)) {
  const int n = std::max(num_threads, 1);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return stopping_ || queue_.size() < capacity_; });
    if (stopping_) return false;
    queue_.push_back(std::move(task));
    ++counters_.submitted;
  }
  not_empty_.notify_one();
  return true;
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_ || queue_.size() >= capacity_) {
      ++counters_.rejected;
      return false;
    }
    queue_.push_back(std::move(task));
    ++counters_.submitted;
  }
  not_empty_.notify_one();
  return true;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

ThreadPool::Counters ThreadPool::counters() const {
  std::unique_lock<std::mutex> lock(mu_);
  return counters_;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    not_full_.notify_one();
    bool threw = false;
    try {
      task();
    } catch (...) {
      // A task must not kill its worker; the engine layer records the
      // error on the query's ticket before it ever reaches here.
      threw = true;
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++counters_.executed;
      if (threw) ++counters_.task_exceptions;
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace osd
