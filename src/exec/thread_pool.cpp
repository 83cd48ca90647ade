#include "exec/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace metacore::exec {

namespace {

thread_local bool tls_on_worker = false;

std::size_t env_threads() {
  const char* env = std::getenv("METACORE_THREADS");
  if (env != nullptr && *env != '\0') return ThreadPool::parse_threads(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

/// One parallel_for invocation. Shared ownership: helper tasks queued on the
/// pool keep the batch alive even if they only run (and find the cursor
/// exhausted) after the caller has long returned — so a late helper never
/// touches pool state that a newer batch is mutating.
struct Batch {
  const std::function<void(std::size_t)>* fn;  // owned by the caller's frame
  std::size_t size = 0;
  std::atomic<std::size_t> next{0};

  std::mutex mutex;
  std::condition_variable done;
  std::size_t finished = 0;
  std::exception_ptr first_error;

  /// Claims indices off the shared cursor until exhausted. The caller's
  /// `fn` reference stays valid while any index remains unclaimed, because
  /// the caller cannot observe finished == size before that.
  void work() {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= size) break;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (++finished == size) done.notify_all();
    }
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable wake;
  bool shutdown = false;
  /// Pending helper tasks (at most threads-1 per in-flight batch). Helpers
  /// accelerate a batch; the issuing thread alone always drives its batch
  /// to completion, so dropping queued helpers at shutdown is harmless.
  std::deque<std::shared_ptr<Batch>> queue;
  std::vector<std::thread> workers;

  void worker_loop() {
    tls_on_worker = true;
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      wake.wait(lock, [&] { return shutdown || !queue.empty(); });
      if (shutdown) return;
      const std::shared_ptr<Batch> batch = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      batch->work();
      lock.lock();
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads)
    : impl_(new Impl), threads_(threads ? threads : 1) {
  impl_->workers.reserve(threads_ - 1);
  for (std::size_t i = 1; i < threads_; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutdown = true;
  }
  impl_->wake.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Serial pool, tiny batch, or a nested call from inside a work item:
  // execute inline — but with the same drain-then-rethrow contract as the
  // threaded path, so a throwing item never abandons its queued siblings
  // (callers like parallel_map_collect rely on every index running).
  if (threads_ == 1 || n == 1 || tls_on_worker) {
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->size = n;
  const std::size_t helpers = std::min(threads_ - 1, n - 1);
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (std::size_t i = 0; i < helpers; ++i) impl_->queue.push_back(batch);
  }
  if (helpers == 1) {
    impl_->wake.notify_one();
  } else {
    impl_->wake.notify_all();
  }

  // The caller works its own batch too; flag it as a worker so nested
  // parallel_for calls from its own slice run inline like everyone else's.
  tls_on_worker = true;
  batch->work();
  tls_on_worker = false;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(batch->mutex);
    batch->done.wait(lock, [&] { return batch->finished == batch->size; });
    error = batch->first_error;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(configured_threads());
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(global_mutex());
  global_slot() = std::make_unique<ThreadPool>(threads ? threads : 1);
}

std::size_t ThreadPool::configured_threads() { return env_threads(); }

std::size_t ThreadPool::parse_threads(const std::string& value) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v < 1 ||
      v > static_cast<long long>(kMaxThreads)) {
    throw std::invalid_argument("METACORE_THREADS must be an integer in [1, " +
                                std::to_string(kMaxThreads) + "], got '" +
                                value + "'");
  }
  return static_cast<std::size_t>(v);
}

bool ThreadPool::on_worker_thread() noexcept { return tls_on_worker; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(n, fn);
}

}  // namespace metacore::exec
