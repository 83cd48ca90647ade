#include "serve/service.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <cstdlib>

#include "core/report.hpp"
#include "exec/thread_pool.hpp"
#include "robust/checkpoint.hpp"
#include "robust/json.hpp"
#include "search/pareto.hpp"

namespace metacore::serve {

namespace {

using robust::JsonValue;

constexpr const char* kWhat = "query";

double get_number(const JsonValue& obj, const std::string& key,
                  double fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->type != JsonValue::Type::Number) {
    throw std::runtime_error(std::string(kWhat) + ": field '" + key +
                             "' must be a number");
  }
  return v->number;
}

int get_int(const JsonValue& obj, const std::string& key, int fallback) {
  return static_cast<int>(get_number(obj, key, fallback));
}

bool get_bool(const JsonValue& obj, const std::string& key, bool fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->type != JsonValue::Type::Bool) {
    throw std::runtime_error(std::string(kWhat) + ": field '" + key +
                             "' must be a boolean");
  }
  return v->boolean;
}

std::string get_string(const JsonValue& obj, const std::string& key,
                       const std::string& fallback) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  if (v->type != JsonValue::Type::String) {
    throw std::runtime_error(std::string(kWhat) + ": field '" + key +
                             "' must be a string");
  }
  return v->string;
}

core::ViterbiRequirements viterbi_requirements(const DesignQuery& query) {
  core::ViterbiRequirements req;
  req.target_ber = query.target_ber;
  req.esn0_db = query.esn0_db;
  req.throughput_mbps = query.throughput_mbps;
  req.ber_shards = query.ber_shards;
  req.ber_lanes = query.ber_lanes;
  return req;
}

search::Objective query_objective(const DesignQuery& query,
                                  search::Objective base) {
  if (!query.minimize.empty()) base.minimize = query.minimize;
  if (!query.constraints.empty()) base.constraints = query.constraints;
  return base;
}

/// Cache cap: METACORE_RESPONSE_CACHE when set (0 disables), else the
/// configured value. Throws std::invalid_argument on a malformed value.
std::size_t cache_capacity_from_env(std::size_t configured) {
  const char* env = std::getenv("METACORE_RESPONSE_CACHE");
  if (env == nullptr || *env == '\0') return configured;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') {
    throw std::invalid_argument(
        "service: METACORE_RESPONSE_CACHE must be a non-negative integer, "
        "got \"" +
        std::string(env) + "\"");
  }
  return static_cast<std::size_t>(value);
}

void write_point(std::ostream& os, const search::EvaluatedPoint& pt) {
  os << "{\"values\":[";
  for (std::size_t i = 0; i < pt.values.size(); ++i) {
    if (i > 0) os << ',';
    robust::write_double(os, pt.values[i]);
  }
  os << "],\"record\":";
  robust::write_eval_record(
      os, robust::CheckpointRecord{pt.indices, pt.fidelity, pt.eval});
  os << '}';
}

}  // namespace

std::string to_string(QueryKind kind) {
  return kind == QueryKind::Viterbi ? "viterbi" : "iir";
}

std::string query_fingerprint(const DesignQuery& query) {
  if (query.kind == QueryKind::Viterbi) {
    return core::ViterbiMetaCore(viterbi_requirements(query))
        .evaluation_fingerprint();
  }
  return core::IirMetaCore(
             core::paper_bandpass_requirements(query.sample_period_us))
      .evaluation_fingerprint();
}

std::string to_json(const DesignQuery& query) {
  std::ostringstream os;
  os << "{\"kind\":\"" << to_string(query.kind) << "\",\"target_ber\":";
  robust::write_double(os, query.target_ber);
  os << ",\"esn0_db\":";
  robust::write_double(os, query.esn0_db);
  os << ",\"throughput_mbps\":";
  robust::write_double(os, query.throughput_mbps);
  os << ",\"ber_shards\":" << query.ber_shards
     << ",\"ber_lanes\":" << query.ber_lanes << ",\"sample_period_us\":";
  robust::write_double(os, query.sample_period_us);
  os << ",\"budget\":{\"initial_points_per_dim\":"
     << query.budget.initial_points_per_dim
     << ",\"max_resolution\":" << query.budget.max_resolution
     << ",\"regions_per_level\":" << query.budget.regions_per_level
     << ",\"max_evaluations\":" << query.budget.max_evaluations
     << "},\"minimize\":";
  robust::write_escaped(os, query.minimize);
  os << ",\"constraints\":[";
  for (std::size_t i = 0; i < query.constraints.size(); ++i) {
    const search::Constraint& c = query.constraints[i];
    if (i > 0) os << ',';
    os << "{\"kind\":\""
       << (c.kind == search::Constraint::Kind::UpperBound ? "upper" : "lower")
       << "\",\"metric\":";
    robust::write_escaped(os, c.metric);
    os << ",\"bound\":";
    robust::write_double(os, c.bound);
    os << '}';
  }
  os << "],\"archive_only\":" << (query.archive_only ? "true" : "false")
     << '}';
  return os.str();
}

DesignQuery parse_design_query(const std::string& json) {
  const JsonValue doc = robust::parse_json(json, kWhat);
  if (doc.type != JsonValue::Type::Object) {
    throw std::runtime_error(std::string(kWhat) +
                             ": document must be an object");
  }
  DesignQuery query;
  const std::string kind = get_string(doc, "kind", "");
  if (kind == "viterbi") {
    query.kind = QueryKind::Viterbi;
  } else if (kind == "iir") {
    query.kind = QueryKind::Iir;
  } else {
    throw std::runtime_error(std::string(kWhat) +
                             ": 'kind' must be \"viterbi\" or \"iir\"");
  }
  query.target_ber = get_number(doc, "target_ber", query.target_ber);
  query.esn0_db = get_number(doc, "esn0_db", query.esn0_db);
  query.throughput_mbps =
      get_number(doc, "throughput_mbps", query.throughput_mbps);
  query.ber_shards = get_int(doc, "ber_shards", query.ber_shards);
  query.ber_lanes = get_int(doc, "ber_lanes", query.ber_lanes);
  query.sample_period_us =
      get_number(doc, "sample_period_us", query.sample_period_us);
  if (const JsonValue* budget = doc.find("budget")) {
    if (budget->type != JsonValue::Type::Object) {
      throw std::runtime_error(std::string(kWhat) +
                               ": 'budget' must be an object");
    }
    query.budget.initial_points_per_dim =
        get_int(*budget, "initial_points_per_dim",
                query.budget.initial_points_per_dim);
    query.budget.max_resolution =
        get_int(*budget, "max_resolution", query.budget.max_resolution);
    query.budget.regions_per_level =
        get_int(*budget, "regions_per_level", query.budget.regions_per_level);
    query.budget.max_evaluations = static_cast<std::size_t>(get_number(
        *budget, "max_evaluations",
        static_cast<double>(query.budget.max_evaluations)));
  }
  query.minimize = get_string(doc, "minimize", query.minimize);
  if (const JsonValue* constraints = doc.find("constraints")) {
    if (constraints->type != JsonValue::Type::Array) {
      throw std::runtime_error(std::string(kWhat) +
                               ": 'constraints' must be an array");
    }
    for (const JsonValue& entry : constraints->array) {
      if (entry.type != JsonValue::Type::Object) {
        throw std::runtime_error(std::string(kWhat) +
                                 ": each constraint must be an object");
      }
      search::Constraint c;
      const std::string ckind = get_string(entry, "kind", "upper");
      if (ckind == "upper") {
        c.kind = search::Constraint::Kind::UpperBound;
      } else if (ckind == "lower") {
        c.kind = search::Constraint::Kind::LowerBound;
      } else {
        throw std::runtime_error(
            std::string(kWhat) +
            ": constraint 'kind' must be \"upper\" or \"lower\"");
      }
      c.metric =
          robust::require(entry, "metric", JsonValue::Type::String, kWhat)
              .string;
      c.bound =
          robust::require(entry, "bound", JsonValue::Type::Number, kWhat)
              .number;
      query.constraints.push_back(std::move(c));
    }
  }
  query.archive_only = get_bool(doc, "archive_only", query.archive_only);
  return query;
}

std::string to_json(const DesignResponse& response) {
  std::ostringstream os;
  os << "{\"feasible\":" << (response.feasible ? "true" : "false")
     << ",\"from_archive\":" << (response.from_archive ? "true" : "false")
     << ",\"best\":";
  write_point(os, response.best);
  os << ",\"evaluations\":" << response.evaluations
     << ",\"cache_hits\":" << response.cache_hits
     << ",\"store_hits\":" << response.store_hits
     << ",\"divergent_duplicates\":" << response.divergent_duplicates
     << ",\"store_degraded\":" << (response.store_degraded ? "true" : "false")
     << ",\"front_x\":";
  robust::write_escaped(os, response.front_x);
  os << ",\"front_y\":";
  robust::write_escaped(os, response.front_y);
  os << ",\"front\":[";
  for (std::size_t i = 0; i < response.front.size(); ++i) {
    if (i > 0) os << ',';
    write_point(os, response.front[i]);
  }
  os << "],\"summary\":";
  robust::write_escaped(os, response.summary);
  os << '}';
  return os.str();
}

struct DesignService::InFlight {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  DesignResponse response;
  std::exception_ptr error;
};

DesignService::DesignService(ServiceConfig config)
    : cache_capacity_(cache_capacity_from_env(config.response_cache_capacity)) {
  if (config.store) {
    store_ = std::move(config.store);
  } else if (!config.store_path.empty()) {
    store_ = std::make_shared<EvaluationStore>(config.store_path);
  }
}

DesignResponse DesignService::submit(const DesignQuery& query) {
  const std::string key = to_json(query);
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = in_flight_.find(key);
    if (it != in_flight_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<InFlight>();
      in_flight_.emplace(key, flight);
      leader = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries;
    if (!leader) ++stats_.coalesced;
  }
  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->response;
  }

  DesignResponse response;
  std::exception_ptr error;
  try {
    response = run_query(query);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    in_flight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->done = true;
    flight->response = response;
    flight->error = error;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return response;
}

template <typename Answer, typename Fn>
std::vector<Answer> DesignService::run_batch(
    const std::vector<DesignQuery>& queries, const Fn& answer) {
  std::vector<Answer> out(queries.size());
  if (queries.empty()) return out;

  // Deduplicate identical queries up front: each unique query runs exactly
  // once regardless of thread count (at METACORE_THREADS=1 the fan-out is
  // sequential, so in-flight coalescing alone could never fire — pre-dedup
  // is what keeps the output byte-identical at any thread count).
  std::map<std::string, std::size_t> first_of;
  std::vector<std::size_t> slot_of(queries.size());
  std::vector<std::size_t> unique;
  std::size_t duplicates = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] = first_of.emplace(to_json(queries[i]), unique.size());
    if (inserted) {
      unique.push_back(i);
    } else {
      ++duplicates;
    }
    slot_of[i] = it->second;
  }
  if (duplicates > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.queries += duplicates;
    stats_.coalesced += duplicates;
  }

  // Group distinct queries that share an evaluator fingerprint: they read
  // and feed the same store partition and archive, so they run sequentially
  // in batch order within the group (groups fan out in parallel). Without
  // this, whether query B's search hits entries recorded by query A's
  // would depend on scheduling — store_hits would vary with thread count.
  std::map<std::string, std::vector<std::size_t>> by_fingerprint;
  for (std::size_t u = 0; u < unique.size(); ++u) {
    by_fingerprint[query_fingerprint(queries[unique[u]])].push_back(u);
  }
  std::vector<const std::vector<std::size_t>*> groups;
  groups.reserve(by_fingerprint.size());
  for (const auto& [fingerprint, slots] : by_fingerprint) {
    groups.push_back(&slots);
  }

  std::vector<Answer> unique_out(unique.size());
  exec::parallel_for(groups.size(), [&](std::size_t g) {
    for (const std::size_t u : *groups[g]) {
      unique_out[u] = answer(queries[unique[u]]);
    }
  });

  for (std::size_t i = 0; i < queries.size(); ++i) {
    out[i] = unique_out[slot_of[i]];
  }
  return out;
}

std::vector<DesignResponse> DesignService::submit_batch(
    const std::vector<DesignQuery>& queries) {
  return run_batch<DesignResponse>(
      queries, [this](const DesignQuery& query) { return submit(query); });
}

std::shared_ptr<const std::string> DesignService::submit_encoded(
    const DesignQuery& query, WireEncoding) {
  if (cache_capacity_ == 0) {
    return std::make_shared<const std::string>(to_json(submit(query)));
  }

  // An unconstructible query (bad requirements) has no evaluator scope to
  // stamp; skip the cache and let submit() raise the real error.
  std::string fingerprint;
  try {
    fingerprint = query_fingerprint(query);
  } catch (...) {
    return std::make_shared<const std::string>(to_json(submit(query)));
  }

  const std::string key = to_json(query);
  const Generation g0 = current_generation(fingerprint);
  {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    auto it = response_cache_.find(key);
    if (it != response_cache_.end()) {
      if (it->second.gen == g0) {
        // Valid entry: the scope has not moved since the cached run, so a
        // fresh submit() would reproduce these exact bytes.
        {
          std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          ++stats_.queries;
          ++stats_.response_cache_hits;
        }
        return it->second.bytes;
      }
      // The store or archive generation moved: the entry may no longer
      // match what a fresh run would answer (store_hits, archive
      // population). Drop it.
      response_cache_.erase(it);
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.response_cache_invalidations;
    }
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.response_cache_misses;
  }

  auto bytes = std::make_shared<const std::string>(to_json(submit(query)));
  const Generation g1 = current_generation(fingerprint);
  // Cache only runs that left their scope unchanged (g1 == g0): a cold
  // search appends to the store, so its repeat would answer differently
  // (store_hits) — the *repeat* is the run that becomes cacheable.
  if (g1 == g0) {
    std::lock_guard<std::mutex> cache_lock(cache_mutex_);
    auto [it, inserted] = response_cache_.try_emplace(key);
    if (inserted || it->second.gen != g1) {
      it->second = CachedResponse{g1, bytes};
    }
    if (inserted) {
      cache_fifo_.push_back(key);
      // FIFO eviction, skipping keys an invalidation already erased.
      while (response_cache_.size() > cache_capacity_ &&
             !cache_fifo_.empty()) {
        response_cache_.erase(cache_fifo_.front());
        cache_fifo_.erase(cache_fifo_.begin());
      }
    }
  }
  return bytes;
}

std::vector<std::shared_ptr<const std::string>>
DesignService::submit_batch_encoded(const std::vector<DesignQuery>& queries) {
  return run_batch<std::shared_ptr<const std::string>>(
      queries,
      [this](const DesignQuery& query) { return submit_encoded(query); });
}

std::size_t DesignService::response_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return response_cache_.size();
}

DesignService::Generation DesignService::current_generation(
    const std::string& fingerprint) const {
  Generation gen{0, 0};
  if (store_) gen.first = store_->generation(fingerprint);
  std::shared_lock<std::shared_mutex> lock(archive_mutex_);
  const auto it = archive_generation_.find(fingerprint);
  gen.second = it == archive_generation_.end() ? 0 : it->second;
  return gen;
}

ServiceStats DesignService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::string to_json(const ServiceStats& stats) {
  std::ostringstream os;
  os << "{\"queries\":" << stats.queries
     << ",\"searches_launched\":" << stats.searches_launched
     << ",\"coalesced\":" << stats.coalesced
     << ",\"archive_answers\":" << stats.archive_answers
     << ",\"evaluations\":" << stats.evaluations
     << ",\"cache_hits\":" << stats.cache_hits
     << ",\"store_hits\":" << stats.store_hits
     << ",\"response_cache_hits\":" << stats.response_cache_hits
     << ",\"response_cache_misses\":" << stats.response_cache_misses
     << ",\"response_cache_invalidations\":"
     << stats.response_cache_invalidations << '}';
  return os.str();
}

std::string DesignService::stats_json() const {
  std::string doc = to_json(stats());
  doc.pop_back();  // reopen the object to append the store member
  std::ostringstream os;
  os << doc << ",\"store\":{\"attached\":" << (store_ ? "true" : "false");
  if (store_) {
    const StoreStats ss = store_->stats();
    os << ",\"entries\":" << store_->size() << ",\"hits\":" << ss.hits
       << ",\"misses\":" << ss.misses << ",\"appends\":" << ss.appends
       << ",\"divergent_duplicates\":" << ss.divergent_duplicates
       << ",\"dropped_writes\":" << ss.dropped_writes
       << ",\"degraded\":" << (ss.degraded ? "true" : "false")
       << ",\"shards\":" << ss.shards
       << ",\"migrated_layout\":" << (ss.migrated_layout ? "true" : "false")
       << ",\"quarantined_shards\":" << ss.quarantined_shards
       << ",\"lock_contention\":" << ss.lock_contention
       << ",\"shard_entries\":[";
    for (std::size_t i = 0; i < ss.shard_entries.size(); ++i) {
      if (i > 0) os << ',';
      os << ss.shard_entries[i];
    }
    os << "],\"shard_bytes\":[";
    for (std::size_t i = 0; i < ss.shard_bytes.size(); ++i) {
      if (i > 0) os << ',';
      os << ss.shard_bytes[i];
    }
    os << ']';
  }
  os << "}}";
  return os.str();
}

std::size_t DesignService::archive_size(const DesignQuery& query) const {
  const std::string fingerprint = query_fingerprint(query);
  std::shared_lock<std::shared_mutex> lock(archive_mutex_);
  auto it = archives_.find(fingerprint);
  return it == archives_.end() ? 0 : it->second.size();
}

DesignResponse DesignService::run_query(const DesignQuery& query) {
  if (query.archive_only) return answer_from_archive(query);

  search::SearchConfig config;
  config.initial_points_per_dim = query.budget.initial_points_per_dim;
  config.max_resolution = query.budget.max_resolution;
  config.regions_per_level = query.budget.regions_per_level;
  config.max_evaluations = query.budget.max_evaluations;
  config.store = store_;

  DesignResponse response;
  response.front_x = "area_mm2";
  search::SearchResult result;
  std::string fingerprint;
  search::Objective objective;

  if (query.kind == QueryKind::Viterbi) {
    const core::ViterbiMetaCore metacore(viterbi_requirements(query));
    fingerprint = metacore.evaluation_fingerprint();
    config.store_fingerprint = fingerprint;
    objective = query_objective(query, metacore.objective());
    // BER stays under Bayesian guard only while the (possibly replaced)
    // constraint set actually bounds it.
    const bool ber_bounded = std::any_of(
        objective.constraints.begin(), objective.constraints.end(),
        [](const search::Constraint& c) {
          return c.metric == "ber" &&
                 c.kind == search::Constraint::Kind::UpperBound;
        });
    if (ber_bounded) config.probabilistic_metric = "ber";
    const search::DesignSpace space = metacore.design_space();
    search::MultiresolutionSearch engine(space, objective,
                                         metacore.evaluator(), config);
    result = engine.run();
    // Same final high-fidelity pass ViterbiMetaCore::search applies.
    result = search::verify_top_candidates(
        std::move(result), space, objective, metacore.evaluator(), 5,
        config.max_resolution + 1, config.store.get(),
        config.store_fingerprint);
    response.front_y = "ber";
  } else {
    const core::IirMetaCore metacore(
        core::paper_bandpass_requirements(query.sample_period_us));
    fingerprint = metacore.evaluation_fingerprint();
    config.store_fingerprint = fingerprint;
    objective = query_objective(query, metacore.objective());
    search::MultiresolutionSearch engine(metacore.design_space(), objective,
                                         metacore.evaluator(), config);
    result = engine.run();
    response.front_y = "passband_ripple_db";
  }

  absorb_history(fingerprint, result.history);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.searches_launched;
    stats_.evaluations += result.evaluations;
    stats_.cache_hits += result.cache_hits;
    stats_.store_hits += result.store_hits;
  }

  response.feasible = result.found_feasible;
  response.best = result.best;
  response.evaluations = result.evaluations;
  response.cache_hits = result.cache_hits;
  response.store_hits = result.store_hits;
  response.divergent_duplicates = result.divergent_duplicates;
  response.front =
      search::pareto_front(result.history, response.front_x, response.front_y);
  response.summary = core::summarize(result, objective);
  if (store_ && store_->degraded()) {
    response.store_degraded = true;
    response.summary +=
        "; STORE DEGRADED: evaluations from this query were not persisted";
  }
  return response;
}

DesignResponse DesignService::answer_from_archive(const DesignQuery& query) {
  DesignResponse response;
  response.from_archive = true;
  response.front_x = "area_mm2";

  std::string fingerprint;
  search::Objective objective;
  std::optional<search::DesignSpace> space;
  if (query.kind == QueryKind::Viterbi) {
    const core::ViterbiMetaCore metacore(viterbi_requirements(query));
    fingerprint = metacore.evaluation_fingerprint();
    objective = query_objective(query, metacore.objective());
    space.emplace(metacore.design_space());
    response.front_y = "ber";
  } else {
    const core::IirMetaCore metacore(
        core::paper_bandpass_requirements(query.sample_period_us));
    fingerprint = metacore.evaluation_fingerprint();
    objective = query_objective(query, metacore.objective());
    space.emplace(metacore.design_space());
    response.front_y = "passband_ripple_db";
  }

  // Population: persisted store entries overlaid with this service's
  // in-memory archive, keyed by grid indices, highest fidelity winning.
  // Same-fingerprint evaluations are bit-identical per (indices, fidelity),
  // so the merge is order-independent.
  std::map<std::vector<int>, search::EvaluatedPoint> population;
  const auto merge = [&population](search::EvaluatedPoint pt) {
    auto [it, inserted] = population.emplace(pt.indices, pt);
    if (!inserted && pt.fidelity > it->second.fidelity) {
      it->second = std::move(pt);
    }
  };
  if (store_) {
    for (auto& [indices, fidelity, eval] : store_->entries_for(fingerprint)) {
      search::EvaluatedPoint pt;
      pt.indices = indices;
      pt.values = space->values_at(indices);
      pt.fidelity = fidelity;
      pt.eval = std::move(eval);
      merge(std::move(pt));
    }
  }
  {
    std::shared_lock<std::shared_mutex> lock(archive_mutex_);
    auto it = archives_.find(fingerprint);
    if (it != archives_.end()) {
      for (const auto& [indices, pt] : it->second) merge(pt);
    }
  }

  std::vector<search::EvaluatedPoint> satisfying;
  const search::EvaluatedPoint* best = nullptr;
  for (const auto& [indices, pt] : population) {
    if (!best || objective.better(pt.eval, best->eval)) best = &pt;
    if (objective.feasible(pt.eval)) satisfying.push_back(pt);
  }
  if (best) {
    response.best = *best;
    response.feasible = objective.feasible(best->eval);
  }
  response.front =
      search::pareto_front(satisfying, response.front_x, response.front_y);

  std::ostringstream os;
  os << "archive answer over " << population.size() << " stored points ("
     << satisfying.size() << " satisfy the constraints): ";
  if (!best) {
    os << "no archived evaluations for this evaluator scope";
  } else if (!response.feasible) {
    os << "no archived point satisfies the constraints; closest returned";
  } else {
    os << "best " << objective.minimize << " = ";
    robust::write_double(os, best->eval.metric(objective.minimize));
  }
  response.summary = os.str();
  if (store_ && store_->degraded()) {
    response.store_degraded = true;
    response.summary += "; STORE DEGRADED: journal writes are suspended";
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.archive_answers;
  }
  return response;
}

void DesignService::absorb_history(
    const std::string& fingerprint,
    const std::vector<search::EvaluatedPoint>& history) {
  std::unique_lock<std::shared_mutex> lock(archive_mutex_);
  auto& archive = archives_[fingerprint];
  bool changed = false;
  for (const search::EvaluatedPoint& pt : history) {
    auto [it, inserted] = archive.emplace(pt.indices, pt);
    if (inserted) {
      changed = true;
    } else if (pt.fidelity > it->second.fidelity) {
      it->second = pt;
      changed = true;
    }
  }
  // Only an actual change advances the generation: a warm replay that
  // re-absorbs known points leaves cached serialized responses valid.
  if (changed) ++archive_generation_[fingerprint];
}

}  // namespace metacore::serve
