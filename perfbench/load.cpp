// The benchmark's load generator and measuring harness. It starts the
// design server (design_server_demo --listen) as its own process on
// loopback, drives it over at most three query connections plus one stats
// connection from this one thread (cold_iir: one thread per query
// connection), checks every answer byte for byte
// against an in-process DesignService on identical store state, and prints
// one JSON result document as its last line of output (run.py turns it
// into the benchmark's result).
//
//   perfbench_load --workload W --seed N --seconds S --trace 0|1
//                  --server PATH --workdir DIR [--smoke 1]
//
// Workloads (see README.md for why each exists):
//   cold_viterbi  closed loop, one connection, empty store: distinct deep
//                 Viterbi requirement points, one throughput per query.
//   cold_iir      closed loops of distinct IIR queries, one sample period
//                 per query, one loop per dispatch worker, on a
//                 one-thread evaluation pool.
//   mixed_rw      open loop over a prewarmed store: exact repeats,
//                 archive-only constraint queries and same-scope variants
//                 that replay from the store, beside a fixed-rate stream of
//                 novel IIR and shallow Viterbi queries that evaluate and
//                 append.
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the same
// run with stats sampling and rebuilds the searches in-process under spans
// (trace.hpp) to report the per-layer metrics and the tracing overhead.
// README.md defines every metric per workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/ber.hpp"
#include "comm/simd/acs_kernel.hpp"
#include "exec/thread_pool.hpp"
#include "net/protocol.hpp"
#include "robust/json.hpp"
#include "serve/service.hpp"
#include "serve/store.hpp"
#include "trace.hpp"
#include "wire.hpp"

using namespace metacore;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

// --- Fixed configuration --------------------------------------------------

/// The server's store shards (wire.cpp sets METACORE_STORE_SHARDS to
/// match); its admission queue is 65536, so that load shows as queueing
/// delay rather than as refusals.
constexpr std::size_t kServerShards = 4;
constexpr std::size_t kCacheCapacity = 256;  ///< the service default
constexpr std::size_t kQueryConnections = 3;  ///< + 1 stats connection

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Args {
  std::string workload, server, workdir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--server") {
      a.server = value;
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--smoke") {
      a.smoke = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.server.empty() || a.workdir.empty() ||
      !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: perfbench_load --workload W --seed N --seconds S --trace 0|1 "
        "--server PATH --workdir DIR [--smoke 1]");
  }
  return a;
}

// --- Statistics -----------------------------------------------------------

/// Quantile q in [0, 1], linear between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest percentile up to the 99th with at least ten samples beyond
/// it; with fewer than 11 samples, the largest.
double tail(const std::vector<double>& v) {
  if (v.size() < 11) return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  const double q = std::min(0.99, 1.0 - 10.0 / static_cast<double>(v.size()));
  return quantile(v, q);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- The run's report ------------------------------------------------------

struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::map<std::string, std::vector<double>> samples;  ///< for quartiles
  std::map<std::string, double> counts;                ///< deterministic
  std::map<std::string, double> mix;  ///< measured share of each query class
  std::map<std::string, std::string> config;
  std::size_t attempted = 0, failed = 0, wrong = 0, refused = 0;
  std::vector<std::string> problems;
  std::string digest;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void problem(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
  /// Folds socket outcomes into attempted/failed and the correctness check.
  void tally(const std::vector<Outcome>& outcomes) {
    for (const Outcome& o : outcomes) {
      ++attempted;
      if (o.rejected) ++refused;
      if (o.correct == 0 && o.ok) ++wrong;
      if (!o.answered || !o.ok || o.correct == 0) {
        ++failed;
        if (!o.answered) problem("a query was never answered");
      }
    }
  }
};

// --- Server stats ------------------------------------------------------------

struct Stats {
  robust::JsonValue doc;
  double get(const char* section, const char* key,
             const char* sub = nullptr) const {
    const robust::JsonValue* v = doc.find(section);
    if (v && sub) v = v->find(sub);
    if (v) v = v->find(key);
    return v && v->type == robust::JsonValue::Type::Number ? v->number : 0.0;
  }
};

Stats fetch_stats(int port) {
  Connection c(port);
  const std::string line = c.round_trip("{\"id\":\"stats\",\"kind\":\"stats\"}");
  return {robust::parse_json(net::extract_raw_member(line, "stats"), "stats")};
}

double delta(const Stats& a, const Stats& b, const char* section,
             const char* key, const char* sub = nullptr) {
  return b.get(section, key, sub) - a.get(section, key, sub);
}

/// Server counters summed over measured windows, and the admission p99
/// each window ended with.
struct Deltas {
  std::map<std::string, double> sum;
  std::vector<double> admission_p99_ms;

  void add(const Stats& before, const Stats& after) {
    for (const char* k : {"queries_rejected", "fast_lane_queries", "queries_received"}) {
      sum[k] += delta(before, after, "server", k);
    }
    for (const char* k : {"queries", "searches_launched", "archive_answers", "evaluations",
                          "response_cache_hits", "response_cache_misses",
                          "response_cache_invalidations"}) {
      sum[k] += delta(before, after, "service", k);
    }
    for (const char* k : {"hits", "misses", "appends", "lock_contention"}) {
      sum[std::string("store.") + k] += delta(before, after, "service", k, "store");
    }
    admission_p99_ms.push_back(after.get("server", "latency_p99_ms"));
  }
};

/// How the server answered the measured queries: the share served from
/// the response cache, on the archive fast lane, and by a search (a store
/// replay, or a write that evaluates). Reported with every run so that a
/// change that helps one class can be judged against its share.
void report_mix(const Deltas& deltas, Report& rep) {
  const auto get = [&](const char* k) {
    const auto it = deltas.sum.find(k);
    return it == deltas.sum.end() ? 0.0 : it->second;
  };
  const double queries = get("queries");
  rep.mix["response_cache_hit"] = ratio(get("response_cache_hits"), queries);
  rep.mix["fast_lane"] = ratio(get("fast_lane_queries"), get("queries_received"));
  rep.mix["search"] = ratio(get("searches_launched"), queries);
  rep.mix["evaluations_per_query"] = ratio(get("evaluations"), queries);
}

/// The per-layer metrics measured at the socket and in the server's
/// counters, plus the deterministic counts.
struct ServingLayers {
  Deltas deltas;
  double overhead_p50_ms = 0, submit_encoded_p50_us = 0, late_send_p99_ms = 0;
  double queue_depth_max = 0, wire_bytes_per_query = 0;
};

void report_serving_layers(ServingLayers& l, Report& rep) {
  std::map<std::string, double>& d = l.deltas.sum;
  rep.metric("net.overhead_p50_ms", l.overhead_p50_ms, "ms");
  rep.metric("net.admission_p99_ms", quantile(l.deltas.admission_p99_ms, 0.5), "ms");
  rep.metric("net.queue_depth_max", l.queue_depth_max, "count");
  rep.metric("net.rejected", d["queries_rejected"], "count");
  rep.metric("net.wire_bytes_per_query", l.wire_bytes_per_query, "bytes");
  rep.metric("net.fast_lane_share", ratio(d["fast_lane_queries"], d["queries_received"]),
             "ratio");
  rep.metric("serve.submit_encoded_p50_us", l.submit_encoded_p50_us, "us");
  rep.metric("serve.response_cache_hit_ratio",
             ratio(d["response_cache_hits"],
                   d["response_cache_hits"] + d["response_cache_misses"]),
             "ratio");
  rep.metric("serve.response_cache_invalidations", d["response_cache_invalidations"],
             "count");
  rep.metric("serve.searches_per_query", rep.counts["serve.searches_per_query"], "ratio");
  rep.metric("serve.store_hit_ratio",
             ratio(d["store.hits"], d["store.hits"] + d["store.misses"]), "ratio");
  rep.metric("serve.store_appends", d["store.appends"], "count");
  rep.metric("serve.store_lock_contention", d["store.lock_contention"], "count");
  for (const char* count : {"search.evaluations", "search.store_hits", "search.cache_hits",
                            "comm.decoded_bits"}) {
    rep.metric(count, rep.counts[count], "count");
  }
  rep.metric("bench.late_send_p99_ms", l.late_send_p99_ms, "ms");
}

// --- Queries -----------------------------------------------------------------

serve::DesignQuery viterbi(double target_ber, double mbps, int shards,
                           serve::QueryBudget budget) {
  serve::DesignQuery q;
  q.kind = serve::QueryKind::Viterbi;
  q.target_ber = target_ber;
  q.esn0_db = 1.0;
  q.throughput_mbps = mbps;
  q.ber_shards = shards;
  q.budget = budget;
  return q;
}

serve::DesignQuery iir(double period_us, serve::QueryBudget budget) {
  serve::DesignQuery q;
  q.kind = serve::QueryKind::Iir;
  q.sample_period_us = period_us;
  q.budget = budget;
  return q;
}

/// The distinct queries of a run, each with its reference answer once
/// known.
struct QueryTable {
  std::vector<serve::DesignQuery> queries;
  std::vector<QueryEntry> entries;
  std::map<std::string, std::size_t> index;

  std::size_t add(const serve::DesignQuery& q) {
    const std::string json = serve::to_json(q);
    auto [it, inserted] = index.emplace(json, queries.size());
    if (inserted) {
      queries.push_back(q);
      entries.push_back({json, {}});
    }
    return it->second;
  }
};

/// Uniform doubles in [0, 1) from a seeded 64-bit stream.
struct Rng {
  std::mt19937_64 engine;
  explicit Rng(std::uint64_t seed) : engine(seed) {}
  double uniform() { return static_cast<double>(engine() >> 11) * 0x1p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
};

std::shared_ptr<serve::DesignService> open_service(const std::string& store) {
  serve::StoreConfig sc = serve::StoreConfig::from_env();
  sc.shards = kServerShards;
  serve::ServiceConfig config;
  config.store = std::make_shared<serve::EvaluationStore>(store, sc);
  config.response_cache_capacity = kCacheCapacity;
  return std::make_shared<serve::DesignService>(config);
}

/// Runs `f` with the global pool at one thread when `query` is an IIR
/// query. IirMetaCore::evaluate fills its design cache without a lock, so
/// concurrent evaluations of one IIR search race (the server, at more
/// than one exec thread, crashes now and then under IIR searches); the
/// in-process reference and replays evaluate IIR queries serially. Answers do not depend on the
/// thread count.
template <typename F>
auto serial_if_iir(const serve::DesignQuery& query, F&& f) {
  if (query.kind != serve::QueryKind::Iir) return f();
  struct Restore {
    ~Restore() { exec::ThreadPool::set_global_threads(nproc()); }
  } restore;
  exec::ThreadPool::set_global_threads(1);
  return f();
}

/// Copies a store (single file or sharded directory) to `to`.
void copy_store(const std::string& from, const std::string& to) {
  if (fs::exists(from)) fs::copy_file(from, to);
  if (fs::exists(from + ".d")) {
    fs::copy(from + ".d", to + ".d", fs::copy_options::recursive);
  }
}

/// A METACORE_* setting of the server as it will read it: the
/// environment's value, else the program default `fallback`.
std::string server_setting(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr && *env != '\0' ? env : std::to_string(fallback);
}

void record_config(Report& rep) {
  rep.config["nproc"] = std::to_string(nproc());
  rep.config["isa"] = comm::simd::to_string(comm::simd::dispatched_isa());
  rep.config["build_type"] = PERFBENCH_BUILD_TYPE;
  rep.config["server_threads"] = server_setting("METACORE_THREADS", nproc());
  rep.config["server_workers"] = server_setting("METACORE_SERVER_WORKERS", nproc());
  rep.config["store_shards"] = std::to_string(kServerShards);
  rep.config["response_cache_capacity"] =
      server_setting("METACORE_RESPONSE_CACHE", kCacheCapacity);
  rep.config["admission_queue"] = "65536";
  rep.config["query_connections"] = std::to_string(kQueryConnections);
  rep.config["loadgen_threads"] = std::to_string(nproc());
}

/// Checks deferred socket answers against reference bytes.
void check_deferred(std::vector<Outcome>& outcomes,
                    const std::vector<Send>& schedule,
                    const QueryTable& table, Report& rep) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    Outcome& o = outcomes[i];
    if (!o.ok || o.correct != -1) continue;
    const std::string& expected = table.entries[schedule[i].query].expected;
    if (expected.empty()) {
      throw std::logic_error("no reference answer for a checked query");
    }
    o.correct = o.body == expected ? 1 : 0;
    if (o.correct == 0) {
      rep.problem("answer differs from the in-process reference: " +
                  table.entries[schedule[i].query].json);
    }
    o.body.clear();
  }
}

// --- Per-layer metrics from spans -----------------------------------------

struct SpanSums {
  double evaluate_s = 0, multires_s = 0, soft_s = 0, hard_s = 0, cost_s = 0,
         iir_s = 0, verify_eval_s = 0;
  std::map<std::uint64_t, double> search_wall_s;  ///< per request
  std::vector<double> self_ms, lookup_us, record_us;
};

SpanSums sum_spans(const std::vector<Span>& spans) {
  SpanSums s;
  std::map<std::uint64_t, const Span*> phases;
  for (const Span& sp : spans) {
    const std::string name = sp.name;
    if (name == "search.run" || name == "search.verify") phases[sp.id] = &sp;
  }
  // Evaluator intervals per request, for the self-time union.
  std::map<std::uint64_t, std::vector<std::pair<Clock::time_point,
                                                 Clock::time_point>>>
      eval_intervals;
  std::map<std::uint64_t, std::pair<Clock::time_point, Clock::time_point>>
      search_extent;
  for (const Span& sp : spans) {
    const std::string name = sp.name;
    const double d = sp.seconds();
    const bool viterbi_eval = name == "comm.multires_evaluate" ||
                              name == "comm.soft_evaluate" ||
                              name == "comm.hard_evaluate";
    if (viterbi_eval || name == "synth.iir_evaluate") {
      s.evaluate_s += d;
      eval_intervals[sp.request].push_back({sp.start, sp.end});
      auto it = phases.find(sp.parent);
      if (it != phases.end() && std::string(it->second->name) == "search.verify") {
        s.verify_eval_s += d;
      }
    }
    if (name == "comm.multires_evaluate") s.multires_s += d;
    if (name == "comm.soft_evaluate") s.soft_s += d;
    if (name == "comm.hard_evaluate") s.hard_s += d;
    if (name == "synth.iir_evaluate") s.iir_s += d;
    if (name == "cost.evaluate_viterbi_cost") s.cost_s += d;
    if (name == "serve.store_lookup") s.lookup_us.push_back(d * 1e6);
    if (name == "serve.store_record") s.record_us.push_back(d * 1e6);
    if (name == "search.run" || name == "search.verify") {
      auto [it, inserted] = search_extent.try_emplace(sp.request, sp.start, sp.end);
      if (!inserted) {
        it->second.first = std::min(it->second.first, sp.start);
        it->second.second = std::max(it->second.second, sp.end);
      }
    }
  }
  for (auto& [request, extent] : search_extent) {
    const double wall = seconds_between(extent.first, extent.second);
    s.search_wall_s[request] = wall;
    auto& iv = eval_intervals[request];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    Clock::time_point lo{}, hi{};
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) covered += seconds_between(lo, hi);
      lo = a;
      hi = b;
      open = true;
    }
    if (open) covered += seconds_between(lo, hi);
    s.self_ms.push_back((wall - covered) * 1e3);
  }
  return s;
}

/// Calls f(0) ... f(lanes - 1) at once, one thread each (with one lane, on
/// the calling thread), and rethrows the first exception.
template <typename F>
void run_lanes(std::size_t lanes, F&& f) {
  if (lanes == 1) {
    f(std::size_t{0});
    return;
  }
  std::vector<std::exception_ptr> errors(lanes);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < lanes; ++k) {
    threads.emplace_back([&f, &errors, k] {
      try {
        f(k);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Replays `queries` (default-objective, with known reference answers)
/// in-process under spans on a store opened from `traced_store`,
/// cross-checks each against its answer and the reference's decoded bits,
/// and reports the layer metrics the spans carry. The overhead compares
/// with the same searches untraced: replayed on `untraced_store` when
/// given, else `untraced_wall_s`. With `lanes` > 1 (IIR queries only),
/// that many replays run at once, query i in lane i % lanes, each lane
/// with its own store decorator, as the measured server ran them.
void report_replays(const Args& a, const QueryTable& table,
                    const std::vector<std::size_t>& queries,
                    const std::string& traced_store,
                    const std::string* untraced_store, double untraced_wall_s,
                    std::uint64_t reference_bits, Report& rep,
                    std::size_t lanes = 1) {
  Tracer tracer;
  serve::StoreConfig sc = serve::StoreConfig::from_env();
  sc.shards = kServerShards;
  const auto t0 = Clock::now();
  auto inner = std::make_shared<serve::EvaluationStore>(traced_store, sc);
  const double open_ms = seconds_between(t0, Clock::now()) * 1e3;

  std::map<std::uint64_t, double> pool_threads;  ///< per request
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const bool is_iir = table.queries[queries[i]].kind == serve::QueryKind::Iir;
    if (lanes > 1 && !is_iir) {
      throw std::logic_error("concurrent replays are for IIR queries only");
    }
    pool_threads[i + 1] = is_iir ? 1.0 : static_cast<double>(nproc());
  }
  std::vector<double> lane_wall(lanes);
  std::vector<std::uint64_t> lane_bits(lanes);
  std::vector<std::size_t> lane_evaluations(lanes);
  const auto replay_lane = [&](std::size_t k) {
    auto timed = std::make_shared<TimedStore>(inner, tracer);
    for (std::size_t i = k; i < queries.size(); i += lanes) {
      const std::size_t q = queries[i];
      const auto replay = [&] {
        return replay_search(table.queries[q], timed, &tracer, i + 1);
      };
      // Concurrent lanes share one serial pool, set up before they start.
      const ReplayResult r =
          lanes == 1 ? serial_if_iir(table.queries[q], replay) : replay();
      check_replay(r, table.entries[q].expected);
      lane_wall[k] += r.wall_s;
      lane_bits[k] += r.decoded_bits;
      lane_evaluations[k] += r.result.evaluations;
    }
  };
  if (lanes == 1) {
    replay_lane(0);
  } else {
    serial_if_iir(table.queries[queries.front()], [&] { run_lanes(lanes, replay_lane); });
  }
  double traced_wall = 0;
  std::uint64_t traced_bits = 0;
  std::size_t evaluations = 0;
  for (std::size_t k = 0; k < lanes; ++k) {
    traced_wall += lane_wall[k];
    traced_bits += lane_bits[k];
    evaluations += lane_evaluations[k];
  }
  if (untraced_store != nullptr) {
    auto plain = std::make_shared<serve::EvaluationStore>(*untraced_store, sc);
    untraced_wall_s = 0;
    for (const std::size_t q : queries) {
      untraced_wall_s += serial_if_iir(table.queries[q], [&] {
        return replay_search(table.queries[q], plain, nullptr, 0);
      }).wall_s;
    }
  }
  if (traced_bits != reference_bits) {
    rep.problem("traced replay decoded " + std::to_string(traced_bits) +
                " bits, the reference " + std::to_string(reference_bits));
  }
  if (evaluations > 0) rep.counts["trace.replay_evaluations"] = evaluations;

  const std::vector<Span> spans = tracer.spans();
  const SpanSums s = sum_spans(spans);
  const double ber_s = s.multires_s + s.soft_s + s.hard_s;
  // Pool capacity each search ran with: IIR replays run on one thread.
  double capacity_s = 0;
  for (const auto& [request, wall] : s.search_wall_s) {
    capacity_s += wall * pool_threads[request];
  }
  rep.metric("serve.store_open_ms", open_ms, "ms");
  rep.metric("serve.store_lookup_us", median(s.lookup_us), "us");
  rep.metric("serve.store_record_us", median(s.record_us), "us");
  rep.metric("search.self_ms", median(s.self_ms), "ms");
  rep.metric("search.verify_share", ratio(s.verify_eval_s, s.evaluate_s), "ratio");
  rep.metric("core.evaluate_busy_s", s.evaluate_s, "s");
  rep.metric("comm.multires_busy_s", s.multires_s, "s");
  rep.metric("comm.soft_busy_s", s.soft_s, "s");
  rep.metric("comm.hard_busy_s", s.hard_s, "s");
  rep.metric("comm.decoded_bits_per_s",
             ratio(static_cast<double>(traced_bits), ber_s), "1/s");
  rep.metric("cost.viterbi_cost_busy_s", s.cost_s, "s");
  rep.metric("synth.iir_evaluate_busy_s", s.iir_s, "s");
  rep.metric("exec.pool_utilization", ratio(s.evaluate_s, capacity_s), "ratio");
  rep.metric("bench.trace_overhead_pct",
             100.0 * ratio(traced_wall - untraced_wall_s, untraced_wall_s), "%");
  rep.samples["search.self_ms"] = s.self_ms;
  rep.samples["serve.store_lookup_us"] = s.lookup_us;
  tracer.write((fs::path(a.workdir) / "trace.json").string());
  rep.config["trace_spans"] = std::to_string(spans.size());
  rep.config["trace_replayed_searches"] = std::to_string(queries.size());
}

// --- cold_viterbi and cold_iir ---------------------------------------------

/// cold_viterbi and cold_iir: closed loops on an empty store, of distinct
/// queries of one kind. cold_viterbi runs one loop over one connection.
/// cold_iir runs one loop per server dispatch worker (nproc / 2 of them,
/// at most kQueryConnections), each over its own connection with queries
/// that route to its own worker: every IIR search runs inline on its
/// worker, as the server's evaluation pool has one thread (see
/// serial_if_iir), so the searches of different loops run in parallel.
/// Half the CPUs stay free for the server's I/O thread, the generator and
/// the system: with a loop on every CPU the query p99 spread more between
/// runs.
void cold(const Args& a, Report& rep, serve::QueryKind kind) {
  const bool is_iir = kind == serve::QueryKind::Iir;
  const std::size_t lanes =
      is_iir ? std::clamp<std::size_t>(nproc() / 2, 1, kQueryConnections) : 1;
  // Viterbi: 3.5 to 4.5 s per query at 4 threads. IIR: about 0.15 s per
  // query and loop with two loops on four CPUs (an IIR search levels off
  // near 260 evaluations). The run sends a fixed number of queries per
  // loop so its deterministic counts repeat exactly.
  const serve::QueryBudget budget =
      a.smoke ? serve::QueryBudget{2, 0, 1, 6}
      : is_iir ? serve::QueryBudget{5, 2, 4, 3000}
               : serve::QueryBudget{2, 1, 2, 100};
  const std::size_t per_lane =
      a.smoke ? 1
              : std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(
                                             a.seconds / (is_iir ? 0.15 : 4.0))));
  QueryTable table;
  Rng rng(a.seed);
  std::set<long> used;
  // Appends `count` distinct queries with budget `b` to each lane.
  const auto draw = [&](std::vector<std::vector<std::size_t>>& out, std::size_t count,
                        serve::QueryBudget b) {
    out.assign(lanes, {});
    for (std::size_t filled = 0; filled < lanes * count;) {
      // Throughputs within 1e-4 Mb/s of 2.0 (sample periods within 1e-4
      // us of 1.0) keep every query's feasibility, and so its search
      // trajectory, alike, while no two share an evaluator fingerprint.
      const long offset = static_cast<long>(rng.below(100000));
      if (!used.insert(offset).second) continue;
      const double unique = 1e-9 * static_cast<double>(offset);
      const serve::DesignQuery q = is_iir ? iir(1.0 + unique, b)
                                          : viterbi(1e-3, 2.0 + unique, 8, b);
      // The server routes a query to worker shard_index(fingerprint, workers).
      auto& lane = out[serve::shard_index(serve::query_fingerprint(q), lanes)];
      if (lane.size() == count) continue;
      lane.push_back(table.add(q));
      ++filled;
    }
  };
  // Warm-up: a fresh server took up to 2.6 times as long over its first
  // two IIR queries per worker (heap, allocator arenas and journal files
  // still growing), which set the p99 of some runs. Two queries per loop
  // go first, answered and checked but not timed; a shallow budget for
  // Viterbi, whose queries take seconds. Drawn after the measured ones, so
  // those stay the same for a seed.
  const std::size_t warm_per_lane = 2;
  std::vector<std::vector<std::size_t>> measured_lanes, warm_lanes;
  draw(measured_lanes, per_lane, budget);
  draw(warm_lanes, warm_per_lane, is_iir ? budget : serve::QueryBudget{2, 0, 1, 6});
  // order: every loop's warm-up queries, then every loop's measured ones.
  struct Phase {
    std::size_t offset, per_lane;
    /// Loop k's queries of the phase are order[begin(k)] ... order[end(k) - 1].
    std::size_t begin(std::size_t k) const { return offset + k * per_lane; }
    std::size_t end(std::size_t k) const { return begin(k + 1); }
  };
  std::vector<std::size_t> order;
  for (const auto& lane : warm_lanes) order.insert(order.end(), lane.begin(), lane.end());
  for (const auto& lane : measured_lanes) order.insert(order.end(), lane.begin(), lane.end());
  const Phase warmup{0, warm_per_lane}, measure{lanes * warm_per_lane, per_lane};
  const std::size_t n = lanes * per_lane;
  rep.config["queries"] = std::to_string(n);
  rep.config["warmup_queries"] = std::to_string(measure.offset);
  rep.config["connections"] = std::to_string(lanes);
  // IIR: a one-thread evaluation pool, for the race serial_if_iir names,
  // and one dispatch worker per loop.
  const std::vector<std::string> server_settings =
      is_iir ? std::vector<std::string>{"METACORE_THREADS=1",
                                        "METACORE_SERVER_WORKERS=" + std::to_string(lanes)}
             : std::vector<std::string>{};
  if (is_iir) {
    rep.config["server_threads"] = "1";
    rep.config["server_workers"] = std::to_string(lanes);
  }

  // Setup: launch on an empty store, several times; the last one serves.
  const int setups = a.smoke ? 2 : 15;
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < setups; ++i) {
    server.reset();
    const std::string store = (fs::path(a.workdir) / ("store" + std::to_string(i))).string();
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(a.server, store, nullptr,
                                             server_settings);
    Connection probe(server->port());
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  rep.samples["setup_s"] = setup_s;

  // The closed loops, each over its own connection: warm-up, then measure.
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t k = 0; k < lanes; ++k) {
    conns.push_back(std::make_unique<Connection>(server->port()));
  }
  std::vector<Outcome> outcomes(order.size());
  const auto send = [&](const Phase& phase, std::size_t k) {
    for (std::size_t i = phase.begin(k); i < phase.end(k); ++i) {
      const auto t = Clock::now();
      const std::string line = conns[k]->round_trip(
          query_frame(std::to_string(i), table.entries[order[i]].json));
      Outcome& o = outcomes[i];
      o.latency_ms = seconds_between(t, Clock::now()) * 1e3;
      o.answered = true;
      o.ok = line.find("\"status\":\"ok\"") != std::string::npos;
      o.body = response_body(line);
    }
  };
  run_lanes(lanes, [&](std::size_t k) { send(warmup, k); });
  const Stats before = fetch_stats(server->port());
  const auto m0 = Clock::now();
  run_lanes(lanes, [&](std::size_t k) { send(measure, k); });
  const double wall_s = seconds_between(m0, Clock::now());
  const Stats after = fetch_stats(server->port());
  std::size_t wire_bytes = 0;
  for (const auto& conn : conns) wire_bytes += conn->bytes_sent() + conn->bytes_received();
  conns.clear();
  server->stop();
  Deltas deltas;
  deltas.add(before, after);
  report_mix(deltas, rep);
  std::vector<double> latency_ms;
  for (std::size_t i = measure.offset; i < order.size(); ++i) {
    latency_ms.push_back(outcomes[i].latency_ms);
  }

  // Reference: the same queries in-process on an empty store, in the same
  // loops.
  auto ref = open_service((fs::path(a.workdir) / "reference").string());
  const std::uint64_t bits0 = comm::ber_decoded_bits_total();
  std::vector<double> ref_s(order.size());
  serial_if_iir(table.queries[order.front()], [&] {
    run_lanes(lanes, [&](std::size_t k) {
      for (const Phase& phase : {warmup, measure}) {
        for (std::size_t i = phase.begin(k); i < phase.end(k); ++i) {
          const auto t = Clock::now();
          table.entries[order[i]].expected =
              *ref->submit_encoded(table.queries[order[i]], serve::WireEncoding::Json);
          ref_s[i] = seconds_between(t, Clock::now());
        }
      }
    });
  });
  const std::uint64_t bits = comm::ber_decoded_bits_total() - bits0;
  std::vector<Send> schedule;
  for (const std::size_t q : order) schedule.push_back({0.0, q, 1});
  check_deferred(outcomes, schedule, table, rep);
  rep.tally(outcomes);
  // The digest covers the measured answers (the pinned smoke digest).
  std::string answers;
  for (std::size_t i = measure.offset; i < order.size(); ++i) {
    answers += table.entries[order[i]].expected + '\n';
  }
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(serve::fingerprint_hash(answers)));
  rep.digest = digest;

  const serve::ServiceStats rs = ref->stats();
  rep.counts["search.evaluations"] = static_cast<double>(rs.evaluations);
  rep.counts["search.store_hits"] = static_cast<double>(rs.store_hits);
  rep.counts["search.cache_hits"] = static_cast<double>(rs.cache_hits);
  rep.counts["comm.decoded_bits"] = static_cast<double>(bits);
  rep.counts["serve.searches_per_query"] =
      ratio(static_cast<double>(rs.searches_launched), static_cast<double>(rs.queries));
  rep.samples["query_ms"] = latency_ms;

  if (!a.trace) {
    const double evals = delta(before, after, "service", "evaluations");
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("query_p50_ms", median(latency_ms), "ms");
    // Each loop's tail, averaged over the loops (one loop: its tail). A
    // burst of contention on one CPU of the shared host slows the searches
    // of one loop only; pooled, the few slowest queries of a run all came
    // from such a burst, and the pooled p99 of cold_iir spread by 0.32 of
    // the median over ten runs. A program stall slows every loop.
    double tail_ms = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
      tail_ms += tail({latency_ms.begin() + static_cast<std::ptrdiff_t>(k * per_lane),
                       latency_ms.begin() + static_cast<std::ptrdiff_t>((k + 1) * per_lane)});
    }
    rep.metric("query_p99_ms", tail_ms / static_cast<double>(lanes), "ms");
    rep.metric("write_p50_ms", median(latency_ms), "ms");
    rep.metric("evals_per_s", evals / wall_s, "1/s");
    return;
  }

  // Traced run: rebuild every search in-process on a fresh store.
  std::vector<double> overhead_ms;
  for (std::size_t i = measure.offset; i < order.size(); ++i) {
    overhead_ms.push_back(outcomes[i].latency_ms - ref_s[i] * 1e3);
  }
  double ref_wall = 0;
  for (const double s : ref_s) ref_wall += s;
  report_replays(a, table, order, (fs::path(a.workdir) / "traced").string(),
                 nullptr, ref_wall, bits, rep, lanes);
  std::vector<double> ref_us;
  for (std::size_t i = measure.offset; i < order.size(); ++i) ref_us.push_back(ref_s[i] * 1e6);
  ServingLayers layers;
  layers.deltas = std::move(deltas);
  layers.overhead_p50_ms = median(overhead_ms);
  layers.submit_encoded_p50_us = median(ref_us);
  layers.wire_bytes_per_query =
      static_cast<double>(wire_bytes) / static_cast<double>(order.size());
  report_serving_layers(layers, rep);
}

// --- mixed_rw -----------------------------------------------------------------

/// The prewarmed scopes and the read pool over them.
struct ReadPool {
  std::vector<std::size_t> base;      ///< one cold query per scope
  std::vector<std::size_t> all;       ///< every distinct read
  std::vector<std::size_t> variants;  ///< same-scope search variants
  std::vector<std::size_t> archive;   ///< archive-only constraint queries
  std::vector<std::size_t> hot;       ///< exact-repeat set
};

ReadPool make_read_pool(QueryTable& table, Rng& rng, bool smoke) {
  ReadPool pool;
  const int scopes = smoke ? 2 : 8;
  const serve::QueryBudget budget =
      smoke ? serve::QueryBudget{2, 0, 1, 6} : serve::QueryBudget{2, 1, 2, 32};
  for (int s = 0; s < scopes; ++s) {
    const serve::DesignQuery base = viterbi(1e-2, 1.0 + 0.25 * s, 4, budget);
    pool.base.push_back(table.add(base));
    // ber_lanes and an explicit default objective change the query's
    // bytes (a response-cache miss) but not its search, which replays
    // entirely from the store.
    for (const int lanes : {0, 1, 2, 4, 8, 16}) {
      for (const bool explicit_objective : {false, true}) {
        serve::DesignQuery v = base;
        v.ber_lanes = lanes;
        if (explicit_objective) v.minimize = "area_mm2";
        pool.variants.push_back(table.add(v));
      }
    }
    for (int k = 0; k < (smoke ? 4 : 24); ++k) {
      serve::DesignQuery c = base;
      c.archive_only = true;
      c.constraints = {{search::Constraint::Kind::UpperBound, "ber",
                        std::pow(10.0, -1.0 - 0.05 * k)}};
      pool.archive.push_back(table.add(c));
    }
  }
  pool.all = pool.variants;
  pool.all.insert(pool.all.end(), pool.archive.begin(), pool.archive.end());
  // The hot set: variants drawn at random.
  pool.hot = pool.variants;
  for (std::size_t i = pool.hot.size(); i > 1; --i) {
    std::swap(pool.hot[i - 1], pool.hot[rng.below(i)]);
  }
  pool.hot.resize(smoke ? 4 : 32);
  return pool;
}

/// One read: 50% exact repeats of the hot set, 20% archive-only constraint
/// queries (the fast lane), 30% same-scope search variants.
/// The 288 distinct reads outnumber the 256 entries of the response cache,
/// so its FIFO eviction is exercised.
std::size_t pick_read(const ReadPool& pool, Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.5) return pool.hot[rng.below(pool.hot.size())];
  if (u < 0.7) return pool.archive[rng.below(pool.archive.size())];
  return pool.variants[rng.below(pool.variants.size())];
}

/// Novel writes, each on a sample period or throughput no other query
/// uses: IIR queries (about 10 ms on one thread), and as write 64 of every
/// 128 a shallow Viterbi query (about 250 ms). Reads queued on a worker
/// behind a Viterbi write wait an order of magnitude longer than behind an
/// IIR write, so these are kept rare enough not to set the read p99.
struct WriteStream {
  std::uint64_t next = 0;
  std::uint64_t salt = 0;
  std::size_t make(QueryTable& table) {
    const std::uint64_t k = next++;
    const double unique = 1e-9 * static_cast<double>(salt * 1000 + k + 1);
    if (k % 128 == 63) {
      return table.add(viterbi(1e-2, 3.0 + unique, 4, serve::QueryBudget{2, 0, 1, 8}));
    }
    return table.add(iir(1.0 + unique, serve::QueryBudget{2, 1, 1, 24}));
  }
};

std::vector<Send> make_schedule(const ReadPool& pool, QueryTable& table,
                                Rng& rng, double rate, double seconds,
                                WriteStream* writes, double write_rate) {
  std::vector<Send> schedule;
  for (double t = -std::log(1.0 - rng.uniform()) / rate; t < seconds;
       t += -std::log(1.0 - rng.uniform()) / rate) {
    schedule.push_back({t, pick_read(pool, rng), 0});
  }
  if (writes != nullptr) {
    const double phase = rng.uniform() / write_rate;
    for (double t = phase; t < seconds; t += 1.0 / write_rate) {
      schedule.push_back({t, writes->make(table), 1});
    }
    std::sort(schedule.begin(), schedule.end(),
              [](const Send& x, const Send& y) { return x.due_s < y.due_s; });
  }
  return schedule;
}

std::vector<double> latencies(const StageResult& r, const std::vector<Send>& s,
                              int stream) {
  std::vector<double> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i].stream == stream && r.outcomes[i].answered) {
      out.push_back(r.outcomes[i].latency_ms);
    }
  }
  return out;
}

void mixed_rw(const Args& a, Report& rep) {
  const fs::path dir = a.workdir;
  QueryTable table;
  Rng rng(a.seed);
  const ReadPool pool = make_read_pool(table, rng, a.smoke);
  WriteStream writes;
  writes.salt = a.seed % 1000003;
  // Writes run serially, about 17 ms each, so at 16/s they hold a worker
  // about 7% of the time and the read p99 falls inside the mode of reads
  // queued behind an IIR write, not on its edge (at 8/s it jumped between
  // the fast path and that mode from run to run).
  const double write_rate = 16.0;
  const double ref_rate = a.smoke ? 200.0 : 4000.0;
  // After a one-second warm-up, windows at the reference rate, back to
  // back, the reads and writes of each drawn from the seed.
  const double window_s = a.smoke ? 0.25 : 1.0;
  const auto windows = static_cast<std::size_t>(
      std::max(2.0, std::round(0.9 * a.seconds / window_s)));
  rep.config["reference_rate_qps"] = std::to_string(ref_rate);
  rep.config["reference_windows"] = std::to_string(windows);
  rep.config["write_rate_qps"] = std::to_string(write_rate);

  // Data: one cold search per scope into the store the server opens.
  const std::string store = (dir / "store").string();
  {
    auto gen = open_service(store);
    std::vector<serve::DesignQuery> base;
    for (const std::size_t q : pool.base) base.push_back(table.queries[q]);
    gen->submit_batch(base);
  }
  const std::string ref_store = (dir / "reference").string();
  copy_store(store, ref_store);
  copy_store(store, (dir / "traced").string());
  copy_store(store, (dir / "untraced").string());

  // Reference: the prewarm pass in-process; its answers are the expected
  // bytes of every read (reads never change their scope's store entries,
  // so these bytes stay right for the whole run).
  auto ref = open_service(ref_store);
  for (const std::size_t q : pool.all) {
    table.entries[q].expected =
        *ref->submit_encoded(table.queries[q], serve::WireEncoding::Json);
  }

  // The schedules, all drawn before anything is measured.
  const std::vector<Send> warmup =
      make_schedule(pool, table, rng, ref_rate, a.smoke ? 0.2 : 1.0, nullptr, 0);
  std::vector<std::vector<Send>> ref_windows;
  for (std::size_t w = 0; w < windows; ++w) {
    ref_windows.push_back(make_schedule(pool, table, rng, ref_rate, window_s,
                                        &writes, write_rate));
  }

  // A closed-loop read over `conn`, checked against its reference answer.
  const auto ask = [&](Connection& conn, std::size_t q) {
    const std::string line = conn.round_trip(query_frame("0", table.entries[q].json));
    ++rep.attempted;
    if (line != net::make_design_response("0", table.entries[q].expected)) {
      rep.problem("answer differs from the in-process reference: " +
                  table.entries[q].json);
      ++rep.wrong;
      ++rep.failed;
    }
  };

  // Setup: launch on the prewarmed journal and replay the prewarm pass
  // over one connection, several times; the last server serves. Until the
  // server stops, this thread has a CPU of its own and the server the rest.
  auto pin = std::make_unique<PinnedGenerator>();
  auto spinners = std::make_unique<IdleSpinners>(pin->others());
  // A one-thread evaluation pool, so that every search runs on its worker
  // alone. IirMetaCore::evaluate fills its design cache without a lock,
  // and parallel evaluations of one IIR search crash the server now and
  // then; with this the writes run serially, one per worker.
  const std::vector<std::string> server_settings = {"METACORE_THREADS=1"};
  rep.config["server_threads"] = "1";
  const int setups = a.smoke ? 2 : 15;
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < setups; ++i) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(a.server, store, pin->others(),
                                             server_settings);
    Connection conn(server->port());
    for (const std::size_t q : pool.all) ask(conn, q);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  rep.samples["setup_s"] = setup_s;

  // The read sequence both the reference and (traced) the socket replay
  // one query at a time from the post-prewarm state.
  const std::size_t seq_len = a.smoke ? 50 : 1000;
  std::vector<std::size_t> sequence;
  for (const auto& window : ref_windows) {
    for (const Send& s : window) {
      if (s.stream == 0 && sequence.size() < seq_len) sequence.push_back(s.query);
    }
  }
  std::vector<double> rtt_ms;
  if (a.trace) {
    Connection conn(server->port());
    for (const std::size_t q : sequence) {
      const auto t = Clock::now();
      ask(conn, q);
      rtt_ms.push_back(seconds_between(t, Clock::now()) * 1e3);
    }
  }

  // Measure. Write answers are checked once the reference has computed
  // them.
  StageOptions opts;
  opts.connections = kQueryConnections;
  opts.spin = pin->others() != nullptr;
  StageOptions window_opts = opts;
  window_opts.stats_interval_s = a.trace ? 0.05 : 0.0;
  std::vector<std::pair<const std::vector<Send>*, StageResult>> stages;
  stages.emplace_back(&warmup, run_stage(server->port(), warmup, table.entries, opts));
  bool lost = stages.back().second.server_lost;  // the server ended on its own
  std::vector<std::size_t> window_stage;  // index into `stages` per window
  Deltas deltas;
  const auto run_window = [&] {
    const std::vector<Send>& window = ref_windows[window_stage.size()];
    const Stats before = fetch_stats(server->port());
    stages.emplace_back(&window, run_stage(server->port(), window, table.entries, window_opts));
    window_stage.push_back(stages.size() - 1);
    lost = stages.back().second.server_lost;
    if (!lost) deltas.add(before, fetch_stats(server->port()));
  };

  while (window_stage.size() < windows && !lost) run_window();

  server->stop();
  spinners.reset();
  pin.reset();
  if (lost) {
    // Every query it left unanswered counts as failed.
    rep.problem("the design server ended during the measurement (signal " +
                std::to_string(server->signal()) + ")");
  }

  // Reference, counted: the read sequence, then the windows' writes in
  // order. These counts repeat exactly for a seed.
  const serve::ServiceStats s0 = ref->stats();
  const std::uint64_t bits0 = comm::ber_decoded_bits_total();
  std::vector<double> inproc_us;
  for (const std::size_t q : sequence) {
    const auto t = Clock::now();
    const auto bytes = ref->submit_encoded(table.queries[q], serve::WireEncoding::Json);
    inproc_us.push_back(seconds_between(t, Clock::now()) * 1e6);
    if (*bytes != table.entries[q].expected) {
      rep.problem("the reference answered a read differently on replay");
    }
  }
  std::vector<std::size_t> replays;
  {
    std::set<std::size_t> seen;
    for (const std::size_t q : sequence) {
      const serve::DesignQuery& query = table.queries[q];
      if (!query.archive_only && query.minimize.empty() && seen.insert(q).second) {
        replays.push_back(q);
      }
    }
  }
  for (const auto& window : ref_windows) {
    for (const Send& s : window) {
      if (s.stream != 1) continue;
      table.entries[s.query].expected = *serial_if_iir(table.queries[s.query], [&] {
        return ref->submit_encoded(table.queries[s.query], serve::WireEncoding::Json);
      });
      replays.push_back(s.query);
    }
  }
  const serve::ServiceStats s1 = ref->stats();
  const std::uint64_t bits = comm::ber_decoded_bits_total() - bits0;
  rep.counts["search.evaluations"] = static_cast<double>(s1.evaluations - s0.evaluations);
  rep.counts["search.store_hits"] = static_cast<double>(s1.store_hits - s0.store_hits);
  rep.counts["search.cache_hits"] = static_cast<double>(s1.cache_hits - s0.cache_hits);
  rep.counts["comm.decoded_bits"] = static_cast<double>(bits);
  rep.counts["serve.searches_per_query"] =
      ratio(static_cast<double>(s1.searches_launched - s0.searches_launched),
            static_cast<double>(s1.queries - s0.queries));

  for (auto& [schedule, result] : stages) {
    check_deferred(result.outcomes, *schedule, table, rep);
    rep.tally(result.outcomes);
  }

  // Per reference window: read p50 and tail, and the writes' median. A
  // figure is the median over windows, so that a contention episode of
  // the host in a few windows does not decide it, while a program stall
  // that recurs in most windows does.
  std::vector<double> reads, searching, late, p50_w, p99_w, search_w;
  double wall_s = 0, wire_bytes = 0, sent = 0;
  std::size_t queue_depth_max = 0;
  for (const std::size_t i : window_stage) {
    const std::vector<Send>& schedule = *stages[i].first;
    const StageResult& sr = stages[i].second;
    const std::vector<double> r = latencies(sr, schedule, 0);
    std::vector<double> w;
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      if (schedule[k].stream == 1 && sr.outcomes[k].answered) {
        w.push_back(sr.outcomes[k].latency_ms);
      }
      late.push_back(sr.outcomes[k].late_ms);
    }
    if (!r.empty()) {
      p50_w.push_back(median(r));
      p99_w.push_back(tail(r));
    }
    if (!w.empty()) search_w.push_back(median(w));
    reads.insert(reads.end(), r.begin(), r.end());
    searching.insert(searching.end(), w.begin(), w.end());
    wall_s += sr.wall_s;
    wire_bytes += static_cast<double>(sr.bytes_sent + sr.bytes_received);
    sent += static_cast<double>(schedule.size());
    queue_depth_max = std::max(queue_depth_max, sr.queue_depth_max);
  }
  rep.samples["query_ms"] = reads;
  rep.samples["write_ms"] = searching;
  rep.samples["late_send_ms"] = late;
  rep.samples["window_p50_ms"] = p50_w;
  rep.samples["window_p99_ms"] = p99_w;
  report_mix(deltas, rep);

  if (!a.trace) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("query_p50_ms", median(p50_w), "ms");
    rep.metric("query_p99_ms", median(p99_w), "ms");
    rep.metric("write_p50_ms", median(search_w), "ms");
    rep.metric("evals_per_s", ratio(deltas.sum["evaluations"], wall_s), "1/s");
    return;
  }

  std::vector<double> overhead_ms;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    overhead_ms.push_back(rtt_ms[i] - inproc_us[i] * 1e-3);
  }
  const std::string untraced = (dir / "untraced").string();
  report_replays(a, table, replays, (dir / "traced").string(), &untraced, 0.0,
                 bits, rep);
  ServingLayers layers;
  layers.deltas = std::move(deltas);
  layers.overhead_p50_ms = median(overhead_ms);
  layers.submit_encoded_p50_us = median(inproc_us);
  layers.late_send_p99_ms = tail(late);
  layers.queue_depth_max = static_cast<double>(queue_depth_max);
  layers.wire_bytes_per_query = ratio(wire_bytes, sent);
  report_serving_layers(layers, rep);
}

void print_report(const Args& a, const Report& rep) {
  const double error_rate = ratio(static_cast<double>(rep.failed),
                                  static_cast<double>(rep.attempted));
  std::cout << "workload " << a.workload << " seed " << a.seed << " trace "
            << a.trace << ": " << rep.attempted << " attempted, " << rep.failed
            << " failed (" << rep.wrong << " wrong, " << rep.refused
            << " refused), error_rate " << error_rate << "\n";
  for (const auto& [k, v] : rep.config) std::cout << "  config " << k << " = " << v << "\n";
  for (const auto& m : rep.metrics) {
    std::cout << "  " << m.name << " " << m.value << " " << m.unit << "\n";
  }
  for (const auto& [k, v] : rep.counts) std::cout << "  count " << k << " " << v << "\n";
  for (const auto& [k, v] : rep.mix) std::cout << "  mix " << k << " " << v << "\n";
  for (const std::string& p : rep.problems) std::cout << "  PROBLEM " << p << "\n";

  std::ostringstream os;
  os << "{\"workload\":";
  robust::write_escaped(os, a.workload);
  os << ",\"seed\":" << a.seed << ",\"trace\":" << (a.trace ? 1 : 0)
     << ",\"correct\":" << (rep.failed == 0 && rep.problems.empty() ? "true" : "false")
     << ",\"attempted\":" << rep.attempted << ",\"failed\":" << rep.failed
     << ",\"wrong\":" << rep.wrong << ",\"refused\":" << rep.refused
     << ",\"error_rate\":";
  robust::write_double(os, error_rate);
  os << ",\"digest\":";
  robust::write_escaped(os, rep.digest);
  os << ",\"metrics\":{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    if (i) os << ',';
    robust::write_escaped(os, rep.metrics[i].name);
    os << ":{\"value\":";
    robust::write_double(os, rep.metrics[i].value);
    os << ",\"unit\":";
    robust::write_escaped(os, rep.metrics[i].unit);
    os << '}';
  }
  os << "},\"quartiles\":{";
  bool first = true;
  for (const auto& [k, v] : rep.samples) {
    if (!first) os << ',';
    first = false;
    robust::write_escaped(os, k);
    os << ":{\"n\":" << v.size() << ",\"q1\":";
    robust::write_double(os, quantile(v, 0.25));
    os << ",\"median\":";
    robust::write_double(os, quantile(v, 0.5));
    os << ",\"q3\":";
    robust::write_double(os, quantile(v, 0.75));
    os << '}';
  }
  os << "},\"counts\":{";
  first = true;
  for (const auto& [k, v] : rep.counts) {
    if (!first) os << ',';
    first = false;
    robust::write_escaped(os, k);
    os << ':';
    robust::write_double(os, v);
  }
  os << "},\"mix\":{";
  first = true;
  for (const auto& [k, v] : rep.mix) {
    if (!first) os << ',';
    first = false;
    robust::write_escaped(os, k);
    os << ':';
    robust::write_double(os, v);
  }
  os << "},\"config\":{";
  first = true;
  for (const auto& [k, v] : rep.config) {
    if (!first) os << ',';
    first = false;
    robust::write_escaped(os, k);
    os << ':';
    robust::write_escaped(os, v);
  }
  os << "},\"problems\":[";
  for (std::size_t i = 0; i < rep.problems.size(); ++i) {
    if (i) os << ',';
    robust::write_escaped(os, rep.problems[i]);
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args a = parse_args(argc, argv);
  fs::create_directories(a.workdir);
  // The in-process reference runs with the server's parallelism; the
  // generator thread doubles as one of the pool's threads.
  exec::ThreadPool::set_global_threads(nproc());
  Report rep;
  record_config(rep);
  rep.config["workload"] = a.workload;
  rep.config["seed"] = std::to_string(a.seed);
  rep.config["seconds"] = std::to_string(a.seconds);
  rep.config["smoke"] = a.smoke ? "1" : "0";
  if (a.workload == "cold_viterbi") {
    cold(a, rep, serve::QueryKind::Viterbi);
  } else if (a.workload == "cold_iir") {
    cold(a, rep, serve::QueryKind::Iir);
  } else if (a.workload == "mixed_rw") {
    mixed_rw(a, rep);
  } else {
    throw std::invalid_argument("unknown workload " + a.workload);
  }
  print_report(a, rep);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench_load: " << e.what() << '\n';
  return 1;
}
