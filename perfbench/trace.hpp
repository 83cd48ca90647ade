// Spans for the traced benchmark run, recorded from the benchmark's own
// code around calls into each layer's public functions: the socket round
// trip (net), DesignService::submit_encoded and the evaluation store
// (serve), MultiresolutionSearch::run and verify_top_candidates (search),
// the metacore evaluators (core, comm, synth/dsp) and
// cost::evaluate_viterbi_cost (cost, vliw).
//
// Each span has a name, start, end, parent span and request id. Spans are
// kept in memory and written out when the run ends; the per-layer metrics
// are computed from them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "search/multires_search.hpp"
#include "search/store.hpp"
#include "serve/service.hpp"
#include "wire.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;
  Clock::time_point start, end;
  double seconds() const { return seconds_between(start, end); }
};

class Tracer {
 public:
  /// A fresh span id, for a span whose children are recorded before it
  /// ends.
  std::uint64_t next_id();
  /// Records a finished span; `id` 0 assigns a fresh one. Thread-safe.
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::uint64_t request, Clock::time_point start,
                       Clock::time_point end, std::uint64_t id = 0);
  std::vector<Span> spans() const;
  /// Writes every span as one JSON array (times in microseconds from the
  /// earliest span).
  void write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_ = 1;
};

/// Timing decorator over the search layer's store interface: every lookup
/// and record becomes a span (parent and request set per search).
class TimedStore final : public metacore::search::EvaluationStoreBase {
 public:
  TimedStore(std::shared_ptr<metacore::search::EvaluationStoreBase> inner,
             Tracer& tracer);
  void set_context(std::uint64_t parent, std::uint64_t request);
  std::optional<metacore::search::Evaluation> lookup(
      const std::string& fingerprint, const std::vector<int>& indices,
      int fidelity) override;
  void record(const std::string& fingerprint, const std::vector<int>& indices,
              int fidelity,
              const metacore::search::Evaluation& eval) override;
  std::size_t divergent_duplicates() const override;

 private:
  std::shared_ptr<metacore::search::EvaluationStoreBase> inner_;
  Tracer& tracer_;
  /// Set between searches, read by the pool threads during one.
  std::uint64_t parent_ = 0, request_ = 0;
};

/// One search rebuilt from the public metacore API (design_space(),
/// objective(), evaluator()), the way DesignService runs a
/// default-objective query.
struct ReplayResult {
  metacore::search::SearchResult result;
  double wall_s = 0.0;
  std::uint64_t decoded_bits = 0;
};

/// Runs `query` (default objective only) over `store`. With a tracer, the
/// search phases, every evaluator call (named by decoder kind), a separate
/// cost::evaluate_viterbi_cost call per evaluated Viterbi spec, and every
/// store access become spans of request `request`; without one, nothing
/// is wrapped.
ReplayResult replay_search(
    const metacore::serve::DesignQuery& query,
    std::shared_ptr<metacore::search::EvaluationStoreBase> store,
    Tracer* tracer, std::uint64_t request);

/// Throws unless the replay chose the same best point after the same
/// number of evaluations as the service answer `response_json`.
void check_replay(const ReplayResult& replay, const std::string& response_json);

}  // namespace perfbench
