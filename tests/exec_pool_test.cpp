// Tests for the parallel execution layer: thread-pool semantics (exception
// propagation, empty batches, serial fallback, nesting) and the determinism
// guarantees of its users — sharded BER measurement and the multiresolution
// search must produce bit-identical results at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/ber.hpp"
#include "exec/thread_pool.hpp"
#include "search/multires_search.hpp"
#include "util/rng.hpp"

namespace metacore {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyBatchReturnsImmediately) {
  exec::ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadRunsInlineOnCaller) {
  exec::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, PropagatesFirstExceptionAndSurvives) {
  exec::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i % 7 == 3) {
                            throw std::runtime_error("work item failed");
                          }
                        }),
      std::runtime_error);
  // The pool must remain fully usable after a throwing batch.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, ThrowingItemNeverAbandonsSiblings) {
  // Regression: the inline path (serial pool / nested calls) used to let an
  // exception escape mid-loop, silently skipping every queued sibling. Both
  // paths must drain the whole batch, then rethrow the first error.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(
        pool.parallel_for(hits.size(),
                          [&](std::size_t i) {
                            hits[i].fetch_add(1);
                            if (i == 5) {
                              throw std::runtime_error("mid-batch failure");
                            }
                          }),
        std::runtime_error);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " skipped at "
                                   << threads << " thread(s)";
    }
  }
}

TEST(ThreadPool, ParallelMapCollectIsolatesFailures) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::set_global_threads(threads);
    std::vector<int> items(50);
    std::iota(items.begin(), items.end(), 0);
    const auto outcomes = exec::parallel_map_collect(items, [](int x) {
      if (x % 10 == 7) throw std::invalid_argument("bad item");
      return x * 2;
    });
    ASSERT_EQ(outcomes.size(), items.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (i % 10 == 7) {
        EXPECT_FALSE(outcomes[i].ok());
        EXPECT_THROW(outcomes[i].rethrow(), std::invalid_argument);
      } else {
        ASSERT_TRUE(outcomes[i].ok());
        EXPECT_EQ(*outcomes[i].value, static_cast<int>(i) * 2);
      }
    }
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  exec::ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(exec::ThreadPool::on_worker_thread());
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPool, ParallelMapPreservesItemOrder) {
  exec::ThreadPool::set_global_threads(4);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  const auto squares =
      exec::parallel_map(items, [](int x) { return x * x; });
  ASSERT_EQ(squares.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
  exec::ThreadPool::set_global_threads(1);
}

TEST(ThreadPool, ThreadCountKnobAcceptsOnlyIntegersInRange) {
  // Parses strings only: no pool is ever built at these values.
  EXPECT_EQ(exec::ThreadPool::parse_threads("1"), 1u);
  EXPECT_EQ(exec::ThreadPool::parse_threads("4"), 4u);
  EXPECT_EQ(exec::ThreadPool::parse_threads("256"),
            exec::ThreadPool::kMaxThreads);
  for (const std::string bad :
       {"", "0", "-2", "abc", "4x", "4.0", "1e3", "257", "100000",
        "99999999999999999999999"}) {
    try {
      (void)exec::ThreadPool::parse_threads(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("METACORE_THREADS"), std::string::npos);
      EXPECT_NE(message.find("'" + bad + "'"), std::string::npos) << message;
    }
  }
}

TEST(CounterRng, IsAPureFunctionOfKeyAndCounter) {
  util::CounterRng a(42, 0);
  util::CounterRng b(42, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  EXPECT_EQ(util::CounterRng::at(42, 7), util::CounterRng::at(42, 7));
  EXPECT_NE(util::CounterRng::at(42, 7), util::CounterRng::at(42, 8));
  EXPECT_NE(util::CounterRng::at(42, 7), util::CounterRng::at(43, 7));
}

TEST(CounterRng, AdjacentStreamsDecorrelate) {
  // Crude independence check: bitwise agreement between adjacent substream
  // keys' outputs should hover around 32 of 64 bits.
  double agree = 0.0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x =
        util::CounterRng::at(util::substream_key(1, 0), i);
    const std::uint64_t y =
        util::CounterRng::at(util::substream_key(1, 1), i);
    agree += __builtin_popcountll(~(x ^ y));
  }
  EXPECT_NEAR(agree / n, 32.0, 1.0);
}

comm::DecoderSpec hard_k3() {
  comm::DecoderSpec spec;
  spec.code = comm::best_rate_half_code(3);
  spec.traceback_depth = 15;
  spec.kind = comm::DecoderKind::Hard;
  return spec;
}

TEST(ShardedBer, BitIdenticalAcrossThreadCounts) {
  comm::BerRunConfig cfg;
  cfg.max_bits = 24'000;
  cfg.min_bits = 24'000;
  cfg.shards = 8;
  std::vector<comm::BerPoint> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::set_global_threads(threads);
    runs.push_back(comm::measure_ber(hard_k3(), 1.0, cfg));
  }
  exec::ThreadPool::set_global_threads(1);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].errors.successes, runs[0].errors.successes);
    EXPECT_EQ(runs[i].errors.trials, runs[0].errors.trials);
  }
  EXPECT_GT(runs[0].errors.trials, 0u);
}

TEST(ShardedBer, SingleShardMatchesHistoricalMeasurement) {
  comm::BerRunConfig cfg;
  cfg.max_bits = 20'000;
  cfg.min_bits = 20'000;
  comm::BerRunConfig sharded = cfg;
  sharded.shards = 1;
  const auto a = comm::measure_ber(hard_k3(), 1.0, cfg);
  const auto b = comm::measure_ber(hard_k3(), 1.0, sharded);
  EXPECT_EQ(a.errors.successes, b.errors.successes);
  EXPECT_EQ(a.errors.trials, b.errors.trials);
}

TEST(ShardedBer, RejectsNonPositiveShardCount) {
  comm::BerRunConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(comm::measure_ber(hard_k3(), 1.0, cfg),
               std::invalid_argument);
}

/// Synthetic landscape with both a smooth objective and a noisy
/// "probabilistic" metric, so the determinism check exercises the Bayesian
/// predictor's evidence-order sensitivity too. Deterministic per point.
search::EvaluateFn synthetic_eval(std::atomic<std::size_t>* calls) {
  return [calls](const std::vector<double>& point, int fidelity) {
    calls->fetch_add(1);
    double v = 0.0;
    for (std::size_t d = 0; d < point.size(); ++d) {
      const double diff = point[d] - 0.5;
      v += diff * diff;
    }
    search::Evaluation e;
    e.metrics["cost"] = v + 0.01 * fidelity;
    // Pseudo-random but point-deterministic BER-like metric.
    const double noise =
        static_cast<double>(util::CounterRng::at(
            17, static_cast<std::uint64_t>(std::llround(v * 1e9)))) /
        static_cast<double>(std::numeric_limits<std::uint64_t>::max());
    e.metrics["ber"] = std::pow(10.0, -2.0 - 3.0 * noise - v);
    e.confidence_weight = 10'000.0;
    return e;
  };
}

search::DesignSpace synthetic_space() {
  std::vector<search::ParameterDef> params;
  for (int d = 0; d < 3; ++d) {
    search::ParameterDef p;
    p.name = "x" + std::to_string(d);
    for (int i = 0; i < 9; ++i) p.values.push_back(i / 8.0);
    p.correlation = search::Correlation::Smooth;
    params.push_back(p);
  }
  return search::DesignSpace(params);
}

TEST(SearchDeterminism, MultiresolutionIdenticalAcrossThreadCounts) {
  search::Objective obj;
  obj.minimize = "cost";
  obj.constraints.push_back(
      {search::Constraint::Kind::UpperBound, "ber", 1e-3});
  search::SearchConfig config;
  config.max_resolution = 2;
  config.regions_per_level = 3;
  config.probabilistic_metric = "ber";

  std::vector<search::SearchResult> results;
  std::vector<std::size_t> call_counts;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::set_global_threads(threads);
    std::atomic<std::size_t> calls{0};
    search::MultiresolutionSearch engine(synthetic_space(), obj,
                                         synthetic_eval(&calls), config);
    results.push_back(engine.run());
    call_counts.push_back(calls.load());
  }
  exec::ThreadPool::set_global_threads(1);

  const auto& ref = results[0];
  EXPECT_GT(ref.evaluations, 0u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].evaluations, ref.evaluations);
    EXPECT_EQ(call_counts[i], call_counts[0]);
    EXPECT_EQ(results[i].best.indices, ref.best.indices);
    // Bit-identical metric values, not just close ones.
    EXPECT_EQ(results[i].best.eval.metrics, ref.best.eval.metrics);
    ASSERT_EQ(results[i].history.size(), ref.history.size());
    for (std::size_t p = 0; p < ref.history.size(); ++p) {
      EXPECT_EQ(results[i].history[p].indices, ref.history[p].indices);
      EXPECT_EQ(results[i].history[p].eval.metrics,
                ref.history[p].eval.metrics);
    }
  }
}

TEST(SearchDeterminism, ExhaustiveIdenticalAcrossThreadCounts) {
  search::Objective obj;
  obj.minimize = "cost";
  std::vector<search::SearchResult> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    exec::ThreadPool::set_global_threads(threads);
    std::atomic<std::size_t> calls{0};
    results.push_back(search::exhaustive_search(
        synthetic_space(), obj, synthetic_eval(&calls), 0));
    EXPECT_EQ(calls.load(), synthetic_space().size());
  }
  exec::ThreadPool::set_global_threads(1);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].best.indices, results[0].best.indices);
    EXPECT_EQ(results[i].best.eval.metrics, results[0].best.eval.metrics);
    EXPECT_EQ(results[i].evaluations, results[0].evaluations);
  }
}

}  // namespace
}  // namespace metacore
