// Fixed-size worker pool with a bounded submission queue.
//
// The pool is the execution substrate of the query engine: N workers drain
// one FIFO of type-erased tasks. The queue is bounded so a flood of
// submissions exerts backpressure (Submit blocks, TrySubmit rejects)
// instead of growing memory without limit — the behaviour a serving system
// needs when overloaded. Tasks that throw are swallowed and counted; a
// worker never dies, so one poisonous query cannot take the pool down.
//
// Thread-safety: all public members may be called from any thread. Submit
// after Shutdown returns false. The destructor drains queued tasks and
// joins the workers.

#ifndef OSD_ENGINE_THREAD_POOL_H_
#define OSD_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace osd {

class ThreadPool {
 public:
  /// Counters since construction; a consistent snapshot under the lock.
  struct Counters {
    long submitted = 0;  ///< tasks accepted into the queue
    long executed = 0;   ///< tasks that ran to completion (or threw)
    long rejected = 0;   ///< TrySubmit calls refused (queue full / stopped)
    long task_exceptions = 0;  ///< tasks that exited via an exception
  };

  /// `num_threads` workers (clamped to >= 1) over a queue holding at most
  /// `queue_capacity` pending tasks (clamped to >= 1).
  ThreadPool(int num_threads, size_t queue_capacity);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`, blocking while the queue is full. Returns false iff
  /// the pool is shutting down (the task is dropped).
  bool Submit(std::function<void()> task);

  /// Non-blocking enqueue; false if the queue is full or shutting down.
  bool TrySubmit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle. Tasks
  /// submitted while waiting extend the wait.
  void WaitIdle();

  /// Stops accepting work, drains already-queued tasks, joins workers.
  /// Idempotent; implied by the destructor.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }
  size_t queue_capacity() const { return capacity_; }
  Counters counters() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable not_empty_;  // queue gained a task / stopping
  std::condition_variable not_full_;   // queue lost a task
  std::condition_variable idle_;       // queue empty and no task running
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t capacity_;
  int active_ = 0;  // tasks currently executing
  bool stopping_ = false;
  Counters counters_;
};

}  // namespace osd

#endif  // OSD_ENGINE_THREAD_POOL_H_
