// Tests for the fault-tolerant evaluation layer: error classification,
// GuardedEvaluator retry/quarantine/conversion semantics, and the
// checkpoint JSON round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "robust/checkpoint.hpp"
#include "robust/error.hpp"
#include "robust/guarded_evaluator.hpp"

namespace metacore {
namespace {

search::Evaluation ok_eval(double cost) {
  search::Evaluation e;
  e.metrics["cost"] = cost;
  return e;
}

robust::EvalError classify(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (...) {
    return robust::classify_current_exception();
  }
}

TEST(EvalError, ClassifiesStandardExceptionTypes) {
  using Kind = robust::EvalErrorKind;
  EXPECT_EQ(classify(std::make_exception_ptr(std::invalid_argument("x"))).kind,
            Kind::InvalidPoint);
  EXPECT_EQ(classify(std::make_exception_ptr(std::domain_error("x"))).kind,
            Kind::InvalidPoint);
  EXPECT_EQ(classify(std::make_exception_ptr(std::out_of_range("x"))).kind,
            Kind::InvalidPoint);
  EXPECT_EQ(classify(std::make_exception_ptr(std::runtime_error("x"))).kind,
            Kind::InvalidPoint);
  // The schedulers throw std::logic_error when they fail to converge.
  EXPECT_EQ(classify(std::make_exception_ptr(std::logic_error("x"))).kind,
            Kind::NonConvergence);
  EXPECT_EQ(classify(std::make_exception_ptr(42)).kind, Kind::NonConvergence);
  // EvalException reports its own kind and message.
  const auto err = classify(std::make_exception_ptr(
      robust::EvalException(Kind::InjectedTransient, "blip")));
  EXPECT_EQ(err.kind, Kind::InjectedTransient);
  EXPECT_EQ(err.message, "blip");
}

TEST(EvalError, KindNamesAreStable) {
  using Kind = robust::EvalErrorKind;
  EXPECT_STREQ(robust::to_string(Kind::InvalidPoint), "invalid-point");
  EXPECT_STREQ(robust::to_string(Kind::NonConvergence), "non-convergence");
  EXPECT_STREQ(robust::to_string(Kind::NonFiniteMetric), "non-finite-metric");
  EXPECT_STREQ(robust::to_string(Kind::InjectedTransient),
               "injected-transient");
  EXPECT_TRUE(robust::is_transient(Kind::InjectedTransient));
  EXPECT_FALSE(robust::is_transient(Kind::InvalidPoint));
  EXPECT_FALSE(robust::is_transient(Kind::NonConvergence));
  EXPECT_FALSE(robust::is_transient(Kind::NonFiniteMetric));
}

TEST(GuardedEvaluator, PassesThroughCleanEvaluations) {
  robust::GuardedEvaluator guard(
      [](const std::vector<double>& point, int fidelity) {
        return ok_eval(point[0] + fidelity);
      });
  const auto eval = guard({2.5}, 3);
  EXPECT_TRUE(eval.feasible);
  EXPECT_EQ(eval.metrics.at("cost"), 5.5);
  EXPECT_TRUE(eval.failure_reason.empty());
  EXPECT_EQ(guard.counters(), robust::FailureCounters{});
}

TEST(GuardedEvaluator, RejectsInvalidConstruction) {
  EXPECT_THROW(robust::GuardedEvaluator(nullptr), std::invalid_argument);
  EXPECT_THROW(
      robust::GuardedEvaluator(
          [](const std::vector<double>&, int) { return ok_eval(0.0); },
          robust::RetryPolicy{0}),
      std::invalid_argument);
}

TEST(GuardedEvaluator, ConvertsTerminalFailuresToInfeasible) {
  robust::GuardedEvaluator guard(
      [](const std::vector<double>&, int) -> search::Evaluation {
        throw std::invalid_argument("degenerate corner");
      });
  const auto eval = guard({0.0}, 0);
  EXPECT_FALSE(eval.feasible);
  EXPECT_TRUE(eval.metrics.empty());
  EXPECT_EQ(eval.failure_reason, "invalid-point: degenerate corner");
  const auto c = guard.counters();
  EXPECT_EQ(c.invalid_point, 1u);
  EXPECT_EQ(c.failed_evaluations, 1u);
  EXPECT_EQ(c.retries, 0u);  // deterministic failures are not retried
}

TEST(GuardedEvaluator, RetriesTransientFaultsDeterministically) {
  // Fails on attempts 0 and 1, succeeds on attempt 2: with max_attempts = 3
  // the guard recovers; the attempt number must be visible to the evaluator.
  auto flaky = [](const std::vector<double>& point, int) {
    if (robust::current_attempt() < 2) {
      throw robust::EvalException(robust::EvalErrorKind::InjectedTransient,
                                  "blip");
    }
    return ok_eval(point[0]);
  };
  robust::GuardedEvaluator guard(flaky, robust::RetryPolicy{3});
  const auto eval = guard({7.0}, 0);
  EXPECT_TRUE(eval.feasible);
  EXPECT_EQ(eval.metrics.at("cost"), 7.0);
  auto c = guard.counters();
  EXPECT_EQ(c.transient_faults, 2u);
  EXPECT_EQ(c.retries, 2u);
  EXPECT_EQ(c.recovered, 1u);
  EXPECT_EQ(c.failed_evaluations, 0u);

  // One attempt fewer and the same fault sequence becomes terminal.
  robust::GuardedEvaluator strict(flaky, robust::RetryPolicy{2});
  const auto failed = strict({7.0}, 0);
  EXPECT_FALSE(failed.feasible);
  EXPECT_EQ(failed.failure_reason, "injected-transient: blip");
  c = strict.counters();
  EXPECT_EQ(c.transient_faults, 2u);
  EXPECT_EQ(c.retries, 1u);
  EXPECT_EQ(c.recovered, 0u);
  EXPECT_EQ(c.failed_evaluations, 1u);
}

TEST(GuardedEvaluator, QuarantinesNonFiniteMetrics) {
  robust::GuardedEvaluator guard(
      [](const std::vector<double>&, int) {
        search::Evaluation e;
        e.metrics["cost"] = 1.0;
        e.metrics["ber"] = std::numeric_limits<double>::quiet_NaN();
        e.metrics["area"] = std::numeric_limits<double>::infinity();
        return e;
      });
  const auto eval = guard({1.0}, 0);
  EXPECT_FALSE(eval.feasible);
  // Finite metrics survive; NaN/Inf never reach downstream predictors.
  EXPECT_EQ(eval.metrics.count("cost"), 1u);
  EXPECT_EQ(eval.metrics.count("ber"), 0u);
  EXPECT_EQ(eval.metrics.count("area"), 0u);
  EXPECT_NE(eval.failure_reason.find("non-finite-metric"), std::string::npos);
  EXPECT_NE(eval.failure_reason.find("ber"), std::string::npos);
  EXPECT_NE(eval.failure_reason.find("area"), std::string::npos);
  const auto c = guard.counters();
  EXPECT_EQ(c.non_finite, 1u);
  EXPECT_EQ(c.failed_evaluations, 1u);
}

TEST(GuardedEvaluator, AttemptNumberResetsBetweenEvaluations) {
  std::vector<int> attempts;
  robust::GuardedEvaluator guard(
      [&](const std::vector<double>&, int) {
        attempts.push_back(robust::current_attempt());
        return ok_eval(0.0);
      });
  guard({1.0}, 0);
  guard({2.0}, 0);
  EXPECT_EQ(attempts, (std::vector<int>{0, 0}));
  EXPECT_EQ(robust::current_attempt(), 0);
}

std::string temp_checkpoint_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(Checkpoint, RoundTripsJournalExactly) {
  robust::SearchCheckpoint cp;
  cp.dimensions = 2;
  cp.probabilistic_metric = "ber";
  cp.fingerprint = {{"max_resolution", 3.0}, {"threshold", 0.05}};
  cp.failures.invalid_point = 2;
  cp.failures.retries = 5;
  cp.failures.failed_evaluations = 2;

  robust::CheckpointRecord a;
  a.indices = {0, 4};
  a.fidelity = 1;
  a.eval.feasible = true;
  a.eval.metrics = {{"cost", 0.1 + 0.2},  // not exactly 0.3: exercises %.17g
                    {"ber", 3.0517578125e-05}};
  a.eval.confidence_weight = 12345.0;

  robust::CheckpointRecord b;
  b.indices = {3, 1};
  b.fidelity = 0;
  b.eval.feasible = false;
  // Escapes and non-finite values must survive the round trip.
  b.eval.failure_reason = "invalid-point: \"quoted\"\n\ttabbed \\ slash";
  b.eval.metrics = {{"inf", std::numeric_limits<double>::infinity()},
                    {"ninf", -std::numeric_limits<double>::infinity()}};
  cp.journal = {a, b};

  const std::string path = temp_checkpoint_path("roundtrip.json");
  ASSERT_FALSE(robust::checkpoint_exists(path));
  robust::save_checkpoint(path, cp);
  ASSERT_TRUE(robust::checkpoint_exists(path));

  const auto loaded = robust::load_checkpoint(path);
  EXPECT_EQ(loaded.version, robust::kCheckpointVersion);
  EXPECT_EQ(loaded.dimensions, cp.dimensions);
  EXPECT_EQ(loaded.probabilistic_metric, cp.probabilistic_metric);
  EXPECT_EQ(loaded.fingerprint, cp.fingerprint);
  EXPECT_EQ(loaded.failures, cp.failures);
  ASSERT_EQ(loaded.journal.size(), 2u);
  EXPECT_EQ(loaded.journal[0].indices, a.indices);
  EXPECT_EQ(loaded.journal[0].fidelity, a.fidelity);
  EXPECT_EQ(loaded.journal[0].eval.feasible, true);
  // Bit-exact doubles, not just close.
  EXPECT_EQ(loaded.journal[0].eval.metrics, a.eval.metrics);
  EXPECT_EQ(loaded.journal[0].eval.confidence_weight,
            a.eval.confidence_weight);
  EXPECT_EQ(loaded.journal[1].eval.failure_reason, b.eval.failure_reason);
  EXPECT_EQ(loaded.journal[1].eval.metrics, b.eval.metrics);
  std::remove(path.c_str());
}

TEST(Checkpoint, RoundTripsNaNMetric) {
  robust::SearchCheckpoint cp;
  cp.dimensions = 1;
  robust::CheckpointRecord rec;
  rec.indices = {0};
  rec.eval.metrics = {{"x", std::numeric_limits<double>::quiet_NaN()}};
  cp.journal = {rec};
  const std::string path = temp_checkpoint_path("nan.json");
  robust::save_checkpoint(path, cp);
  const auto loaded = robust::load_checkpoint(path);
  ASSERT_EQ(loaded.journal.size(), 1u);
  EXPECT_TRUE(std::isnan(loaded.journal[0].eval.metrics.at("x")));
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMissingAndMalformedFiles) {
  EXPECT_THROW(robust::load_checkpoint(temp_checkpoint_path("absent.json")),
               std::runtime_error);
  const std::string path = temp_checkpoint_path("garbage.json");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{not json", f);
    std::fclose(f);
  }
  EXPECT_THROW(robust::load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr);
  if (!f) return text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

robust::SearchCheckpoint small_checkpoint() {
  robust::SearchCheckpoint cp;
  cp.dimensions = 1;
  robust::CheckpointRecord rec;
  rec.indices = {0};
  rec.eval.metrics = {{"cost", 1.0}};
  cp.journal = {rec};
  return cp;
}

TEST(Checkpoint, RejectsVersionMismatch) {
  const std::string path = temp_checkpoint_path("version.json");
  robust::save_checkpoint(path, small_checkpoint());
  // Rewrite the version field by hand.
  std::string text = read_file(path);
  const auto pos = text.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"version\":9");
  write_file(path, text);
  EXPECT_THROW(robust::load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsPreJournalBareJsonAndLeavesItUntouched) {
  // Before journal framing a checkpoint was one bare JSON document: the
  // payload of today's single frame. That format is no longer read.
  const std::string path = temp_checkpoint_path("bare.json");
  robust::save_checkpoint(path, small_checkpoint());
  const std::string framed = read_file(path);
  // Frame: '#' <8 hex> '|' <8 hex> '|' payload '\n' after the header line.
  const auto frame = framed.find("\n#");
  ASSERT_NE(frame, std::string::npos);
  const std::string bare =
      framed.substr(frame + 20, framed.size() - (frame + 20) - 1);
  ASSERT_EQ(bare.front(), '{');
  write_file(path, bare);
  try {
    robust::load_checkpoint(path);
    FAIL() << "a bare-JSON checkpoint must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(read_file(path), bare);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTruncatedFileWithDescriptiveError) {
  // A checkpoint is one atomic JSON document: a truncated file cannot have
  // been produced by save_checkpoint (tmp + rename), so load must refuse
  // it — with an error that names the checkpoint, not a bare parse fail.
  const std::string path = temp_checkpoint_path("truncated.json");
  robust::save_checkpoint(path, small_checkpoint());
  const std::string text = read_file(path);
  ASSERT_GT(text.size(), 20u);
  write_file(path, text.substr(0, text.size() / 2));
  try {
    robust::load_checkpoint(path);
    FAIL() << "truncated checkpoint must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbageMidFileWithDescriptiveError) {
  const std::string path = temp_checkpoint_path("midfile.json");
  robust::save_checkpoint(path, small_checkpoint());
  std::string text = read_file(path);
  // Stomp a structural byte mid-document (the journal key's colon) so the
  // damage is guaranteed to be outside any string literal.
  const auto pos = text.find("\"journal\":");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 10] = '\x01';
  write_file(path, text);
  try {
    robust::load_checkpoint(path);
    FAIL() << "corrupt checkpoint must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace metacore
