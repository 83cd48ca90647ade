// Reusable parallel execution layer for the cost-evaluation hot paths:
// a fixed-size thread pool with parallel_for / parallel_map fan-out.
//
// Design constraints (shared by every user in the repository):
//  * Determinism: the pool never decides *what* work happens or in what
//    order results are merged — callers fan out index-addressed work and
//    reduce in index order, so results are bit-identical at any thread
//    count. The pool only decides *when* each index runs.
//  * Nesting: work items may themselves call parallel_for (e.g. a parallel
//    grid evaluation whose evaluator runs a sharded BER simulation). Inner
//    calls issued from a pool worker execute inline serially, which avoids
//    deadlock without oversubscribing.
//  * Exceptions: every index of a batch always runs — a throwing item never
//    abandons its queued siblings. parallel_for / parallel_map drain the
//    whole batch, then rethrow the first work-item exception on the calling
//    thread; parallel_map_collect instead returns a per-item Outcome so the
//    caller can treat failed items as data (the robust evaluation layer
//    builds on this).
//
// The global pool is sized from the METACORE_THREADS environment variable
// (an integer in [1, 256]; unset means std::thread::hardware_concurrency,
// and an invalid value throws std::invalid_argument). METACORE_THREADS=1
// disables worker threads entirely: every batch runs serially on the
// caller, byte-for-byte identical to the pre-parallel code path.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace metacore::exec {

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread always participates
  /// in batches, so `threads == 1` spawns none). `threads == 0` is treated
  /// as 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism including the caller thread.
  std::size_t size() const noexcept { return threads_; }

  /// Runs fn(0) ... fn(n-1), distributing indices across the pool. Blocks
  /// until all complete; rethrows the first work-item exception. Empty
  /// batches return immediately. Runs inline when the pool is serial, the
  /// batch is a single item, or the caller is itself a pool worker.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

  /// The process-wide pool, created on first use. Honors METACORE_THREADS.
  static ThreadPool& global();

  /// Re-sizes the global pool (tests and benchmarks that compare thread
  /// counts). Not safe to call while another thread is inside a batch.
  static void set_global_threads(std::size_t threads);

  /// Largest thread count METACORE_THREADS accepts.
  static constexpr std::size_t kMaxThreads = 256;

  /// Thread count METACORE_THREADS / hardware_concurrency resolves to. An
  /// unset or empty METACORE_THREADS means hardware_concurrency; any other
  /// value goes through parse_threads.
  static std::size_t configured_threads();

  /// Parses a METACORE_THREADS value: an integer in [1, kMaxThreads].
  /// Anything else (`0`, `-2`, `abc`, `4x`, `257`) throws
  /// std::invalid_argument naming the value.
  static std::size_t parse_threads(const std::string& value);

  /// True on a thread currently executing pool work (nested-call guard).
  static bool on_worker_thread() noexcept;

 private:
  struct Impl;
  Impl* impl_;
  std::size_t threads_;
};

/// parallel_for on the global pool.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Maps `fn` over `items` on the global pool; results keep item order.
/// `fn` must be callable concurrently from multiple threads.
template <typename T, typename F>
auto parallel_map(const std::vector<T>& items, F&& fn)
    -> std::vector<decltype(fn(items[0]))> {
  std::vector<decltype(fn(items[0]))> out(items.size());
  parallel_for(items.size(),
               [&](std::size_t i) { out[i] = fn(items[i]); });
  return out;
}

/// Success-or-error result of one item in a parallel_map_collect batch
/// (std::expected stand-in until C++23): exactly one of `value` / `error`
/// is set.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::exception_ptr error;

  bool ok() const noexcept { return value.has_value(); }
  /// Rethrows the stored error; only meaningful when !ok().
  [[noreturn]] void rethrow() const { std::rethrow_exception(error); }
};

/// Like parallel_map, but drains the whole batch unconditionally and
/// returns a per-item Outcome instead of rethrowing the first exception —
/// one failed item costs that item alone, never its in-flight siblings.
/// Results keep item order.
template <typename T, typename F>
auto parallel_map_collect(const std::vector<T>& items, F&& fn)
    -> std::vector<Outcome<decltype(fn(items[0]))>> {
  std::vector<Outcome<decltype(fn(items[0]))>> out(items.size());
  parallel_for(items.size(), [&](std::size_t i) {
    try {
      out[i].value.emplace(fn(items[i]));
    } catch (...) {
      out[i].error = std::current_exception();
    }
  });
  return out;
}

}  // namespace metacore::exec
