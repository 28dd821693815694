// A small fixed-size worker pool for embarrassingly parallel batches —
// sender recovery at batch admission (Blockchain::SubmitTransactions and
// every block import), batch signature checks, large state commits, the
// parallel executor's speculation wave, and benchmark fan-out. Deliberately
// minimal: a locked FIFO queue, futures for result/exception propagation,
// and a blocking ParallelFor. Tasks must not themselves block on the same
// pool (no nested ParallelFor from a worker or from inside a wave).

#ifndef ONOFFCHAIN_SUPPORT_THREAD_POOL_H_
#define ONOFFCHAIN_SUPPORT_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace onoff {

class ThreadPool {
 public:
  // 0 = one worker per hardware thread (at least one).
  explicit ThreadPool(size_t num_threads = 0);
  // Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  // Enqueues `fn` and returns a future for its result; an exception thrown
  // by `fn` surfaces from future::get().
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Enqueue([task]() { (*task)(); });
    return result;
  }

  // Runs fn(0), ..., fn(n-1) across the workers (the calling thread
  // participates) and blocks until every index has run. Iterations are
  // claimed dynamically, so per-index cost may vary freely. If any
  // iteration throws, the first exception (in completion order) is
  // rethrown after the loop finishes; the remaining iterations still run.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // A lazily created process-wide pool (never destroyed) sized to the
  // hardware. Use for incidental parallelism; owners with lifecycle needs
  // construct their own.
  static ThreadPool& Shared();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace onoff

#endif  // ONOFFCHAIN_SUPPORT_THREAD_POOL_H_
