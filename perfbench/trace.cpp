#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "comm/ber.hpp"
#include "core/iir_metacore.hpp"
#include "core/viterbi_metacore.hpp"
#include "cost/viterbi_cost.hpp"
#include "robust/json.hpp"

namespace perfbench {

using namespace metacore;

// --- Tracer ---------------------------------------------------------------

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_++;
}

std::uint64_t Tracer::record(const char* name, std::uint64_t parent,
                             std::uint64_t request, Clock::time_point start,
                             Clock::time_point end, std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0) id = next_++;
  spans_.push_back({name, id, parent, request, start, end});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  Clock::time_point origin = all.empty() ? Clock::time_point{} : all[0].start;
  for (const Span& s : all) origin = std::min(origin, s.start);
  std::ofstream out(path);
  out << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_us\":" << seconds_between(origin, s.start) * 1e6
        << ",\"end_us\":" << seconds_between(origin, s.end) * 1e6 << '}';
  }
  out << "\n]\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

// --- TimedStore -----------------------------------------------------------

TimedStore::TimedStore(std::shared_ptr<search::EvaluationStoreBase> inner,
                       Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

void TimedStore::set_context(std::uint64_t parent, std::uint64_t request) {
  parent_ = parent;
  request_ = request;
}

std::optional<search::Evaluation> TimedStore::lookup(
    const std::string& fingerprint, const std::vector<int>& indices,
    int fidelity) {
  const auto t0 = Clock::now();
  auto hit = inner_->lookup(fingerprint, indices, fidelity);
  tracer_.record("serve.store_lookup", parent_, request_, t0, Clock::now());
  return hit;
}

void TimedStore::record(const std::string& fingerprint,
                        const std::vector<int>& indices, int fidelity,
                        const search::Evaluation& eval) {
  const auto t0 = Clock::now();
  inner_->record(fingerprint, indices, fidelity, eval);
  tracer_.record("serve.store_record", parent_, request_, t0, Clock::now());
}

std::size_t TimedStore::divergent_duplicates() const {
  return inner_->divergent_duplicates();
}

// --- Search replay --------------------------------------------------------

namespace {

const char* kind_span(comm::DecoderKind kind) {
  switch (kind) {
    case comm::DecoderKind::Multires:
      return "comm.multires_evaluate";
    case comm::DecoderKind::Soft:
      return "comm.soft_evaluate";
    case comm::DecoderKind::Hard:
      break;
  }
  return "comm.hard_evaluate";
}

}  // namespace

ReplayResult replay_search(const serve::DesignQuery& query,
                           std::shared_ptr<search::EvaluationStoreBase> store,
                           Tracer* tracer, std::uint64_t request) {
  if (!query.minimize.empty() || !query.constraints.empty() ||
      query.archive_only) {
    throw std::invalid_argument("replay_search: default-objective queries only");
  }
  search::SearchConfig config;
  config.initial_points_per_dim = query.budget.initial_points_per_dim;
  config.max_resolution = query.budget.max_resolution;
  config.regions_per_level = query.budget.regions_per_level;
  config.max_evaluations = query.budget.max_evaluations;
  config.store = store;

  // The evaluator calls land under whichever phase span is open.
  const std::uint64_t run_id = tracer ? tracer->next_id() : 0;
  const std::uint64_t verify_id = tracer ? tracer->next_id() : 0;
  std::uint64_t phase = run_id;
  auto* timed = dynamic_cast<TimedStore*>(store.get());
  const auto enter = [&](std::uint64_t id) {
    phase = id;
    if (timed != nullptr) timed->set_context(id, request);
  };

  ReplayResult out;
  const std::uint64_t bits0 = comm::ber_decoded_bits_total();
  const auto t0 = Clock::now();
  Clock::time_point t1;
  if (query.kind == serve::QueryKind::Viterbi) {
    core::ViterbiRequirements req;
    req.target_ber = query.target_ber;
    req.esn0_db = query.esn0_db;
    req.throughput_mbps = query.throughput_mbps;
    req.ber_shards = query.ber_shards;
    req.ber_lanes = query.ber_lanes;
    const core::ViterbiMetaCore metacore(req);
    config.store_fingerprint = metacore.evaluation_fingerprint();
    config.probabilistic_metric = "ber";
    const search::Objective objective = metacore.objective();
    const search::DesignSpace space = metacore.design_space();
    search::EvaluateFn evaluate = metacore.evaluator();
    if (tracer != nullptr) {
      evaluate = [&metacore, &phase, tracer, request, inner = evaluate](
                     const std::vector<double>& point, int fidelity) {
        const std::uint64_t parent = phase;
        const auto a = Clock::now();
        search::Evaluation eval = inner(point, fidelity);
        const auto b = Clock::now();
        const comm::DecoderSpec spec = metacore.decode_point(point);
        tracer->record(kind_span(spec.kind), parent, request, a, b);
        cost::ViterbiCostQuery cost_query;
        cost_query.spec = spec;
        cost_query.throughput_mbps = metacore.requirements().throughput_mbps;
        cost_query.tech = metacore.requirements().tech;
        const auto c = Clock::now();
        [[maybe_unused]] const auto cost = cost::evaluate_viterbi_cost(cost_query);
        tracer->record("cost.evaluate_viterbi_cost", parent, request, c,
                       Clock::now());
        return eval;
      };
    }
    enter(run_id);
    search::MultiresolutionSearch engine(space, objective, evaluate, config);
    out.result = engine.run();
    t1 = Clock::now();
    enter(verify_id);
    out.result = search::verify_top_candidates(
        std::move(out.result), space, objective, evaluate, 5,
        config.max_resolution + 1, config.store.get(),
        config.store_fingerprint);
  } else {
    const core::IirMetaCore metacore(
        core::paper_bandpass_requirements(query.sample_period_us));
    config.store_fingerprint = metacore.evaluation_fingerprint();
    search::EvaluateFn evaluate = metacore.evaluator();
    if (tracer != nullptr) {
      evaluate = [&phase, tracer, request, inner = evaluate](
                     const std::vector<double>& point, int fidelity) {
        const std::uint64_t parent = phase;
        const auto a = Clock::now();
        search::Evaluation eval = inner(point, fidelity);
        tracer->record("synth.iir_evaluate", parent, request, a, Clock::now());
        return eval;
      };
    }
    enter(run_id);
    search::MultiresolutionSearch engine(metacore.design_space(),
                                         metacore.objective(), evaluate,
                                         config);
    out.result = engine.run();
    t1 = Clock::now();
  }
  const auto t2 = Clock::now();
  out.wall_s = seconds_between(t0, t2);
  out.decoded_bits = comm::ber_decoded_bits_total() - bits0;
  if (tracer != nullptr) {
    tracer->record("search.run", 0, request, t0, t1, run_id);
    if (query.kind == serve::QueryKind::Viterbi) {
      tracer->record("search.verify", 0, request, t1, t2, verify_id);
    }
  }
  if (timed != nullptr) timed->set_context(0, 0);
  return out;
}

void check_replay(const ReplayResult& replay,
                  const std::string& response_json) {
  const robust::JsonValue doc = robust::parse_json(response_json, "response");
  const auto evaluations = robust::require_count(doc, "evaluations", "response");
  const robust::JsonValue& record =
      robust::require(robust::require(doc, "best", robust::JsonValue::Type::Object,
                                      "response"),
                      "record", robust::JsonValue::Type::Object, "response");
  const auto fidelity = robust::require_count(record, "fidelity", "response");
  std::vector<int> indices;
  for (const robust::JsonValue& v :
       robust::require(record, "indices", robust::JsonValue::Type::Array,
                       "response")
           .array) {
    indices.push_back(static_cast<int>(v.number));
  }
  const search::SearchResult& r = replay.result;
  if (r.evaluations != evaluations || r.best.indices != indices ||
      static_cast<std::size_t>(r.best.fidelity) != fidelity) {
    throw std::runtime_error(
        "traced replay disagrees with the service answer (evaluations " +
        std::to_string(r.evaluations) + " vs " + std::to_string(evaluations) +
        ")");
  }
}

}  // namespace perfbench
