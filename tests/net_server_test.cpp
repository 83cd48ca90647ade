// End-to-end tests for the epoll TCP design-query server on loopback:
// socket answers byte-identical to in-process DesignService answers,
// multiplexed out-of-order responses, malformed/oversized-frame survival
// (a flip-every-byte fuzz on one connection included), requests split
// into single-byte writes or packed several to a write, CRLF framing,
// client byte accounting,
// overload rejection under a tiny admission quota, graceful drain with
// queries in flight, and survival of clients that vanish mid-query.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"

namespace metacore::net {
namespace {

using namespace std::chrono_literals;

std::string temp_store_path(const char* name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  // Clear any sharded layout (`path.d/`) a previous run under
  // METACORE_STORE_SHARDS may have left behind.
  std::error_code ec;
  std::filesystem::remove_all(path + ".d", ec);
  return path;
}

/// Cheap Viterbi query (loose BER target, tiny budget) — seconds of CPU at
/// most, milliseconds when replayed from a warm store.
serve::DesignQuery tiny_query(double mbps = 1.0) {
  serve::DesignQuery query;
  query.kind = serve::QueryKind::Viterbi;
  query.target_ber = 1e-2;
  query.esn0_db = 1.0;
  query.throughput_mbps = mbps;
  query.ber_shards = 2;
  query.budget.initial_points_per_dim = 2;
  query.budget.max_resolution = 0;
  query.budget.regions_per_level = 1;
  query.budget.max_evaluations = 16;
  return query;
}

/// A deliberately slower query to hold the dispatcher busy.
serve::DesignQuery slow_query() {
  serve::DesignQuery query = tiny_query(7.0);
  query.ber_shards = 4;
  query.budget.initial_points_per_dim = 3;
  query.budget.max_evaluations = 96;
  return query;
}

ServerConfig loopback_config() {
  ServerConfig config;
  config.bind_address = "127.0.0.1";
  config.port = 0;  // ephemeral
  return config;
}

/// Writes `bytes` to the client's socket as is, bypassing its framer.
void send_wire(const DesignClient& client, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(client.fd(), bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed";
    off += static_cast<std::size_t>(n);
  }
}

bool wait_until(const std::function<bool()>& condition,
                std::chrono::milliseconds timeout = 30s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return condition();
}

TEST(DesignServer, StartsOnEphemeralPortAndStopsIdempotently) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  EXPECT_EQ(server.port(), 0);
  server.start();
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  server.shutdown();
  EXPECT_FALSE(server.running());
  server.shutdown();  // idempotent
}

TEST(DesignServer, StatsRequestCarriesServerAndServiceCounters) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  const WireResponse response = client.stats();
  ASSERT_TRUE(response.ok()) << response.reason;
  // Both counter families ride in one document — no side channel.
  EXPECT_NE(response.stats_json.find("\"server\":"), std::string::npos);
  EXPECT_NE(response.stats_json.find("\"service\":"), std::string::npos);
  EXPECT_NE(response.stats_json.find("\"coalesced\":"), std::string::npos);
  EXPECT_NE(response.stats_json.find("\"store\":{\"attached\":false}"),
            std::string::npos);
  EXPECT_NE(response.stats_json.find("\"accepted_connections\":1"),
            std::string::npos);
  server.shutdown();
}

TEST(DesignServer, SocketAnswerIsByteIdenticalToInProcess) {
  const serve::DesignQuery query = tiny_query();

  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  const WireResponse wire = client.query(query);
  ASSERT_TRUE(wire.ok()) << wire.reason;
  server.shutdown();

  // A fresh in-process service (same no-store starting state) must produce
  // exactly the bytes that crossed the wire.
  serve::DesignService reference;
  EXPECT_EQ(wire.response_json, serve::to_json(reference.submit(query)));
}

TEST(DesignServer, MultiplexedResponsesMatchTheirIds) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  // Three in-flight requests on one connection, collected in reverse
  // order: ids pair responses to requests, not arrival order.
  client.send_query("q-a", tiny_query(1.0));
  client.send_query("q-b", tiny_query(1.0));  // identical: coalesces
  client.send_stats("q-c");
  const WireResponse c = client.recv_matching("q-c");
  const WireResponse b = client.recv_matching("q-b");
  const WireResponse a = client.recv_matching("q-a");
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_TRUE(c.ok());
  // The two identical queries were deduplicated into one search and must
  // return byte-identical payloads.
  EXPECT_EQ(a.response_json, b.response_json);

  const serve::ServiceStats stats = service->stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_GE(stats.coalesced + (stats.searches_launched > 1 ? 1u : 0u), 1u);
  server.shutdown();
}

TEST(DesignServer, MalformedFramesGetErrorsAndTheConnectionSurvives) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  client.send_raw("this is not json");
  WireResponse err = client.recv_response();
  EXPECT_EQ(err.status, "error");
  EXPECT_EQ(err.id, "");
  EXPECT_FALSE(err.reason.empty());

  // Valid JSON, invalid envelope: the id is still recovered.
  client.send_raw("{\"id\":\"x9\",\"kind\":\"bogus\"}");
  err = client.recv_response();
  EXPECT_EQ(err.status, "error");
  EXPECT_EQ(err.id, "x9");

  // A client from before the single wire format asking to switch to the
  // removed binary mode: an unknown kind, answered in text under its id.
  client.send_raw("{\"id\":\"h\",\"kind\":\"hello\",\"wire\":\"binary\"}");
  err = client.recv_response();
  EXPECT_EQ(err.status, "error");
  EXPECT_EQ(err.id, "h");
  EXPECT_NE(err.reason.find("kind"), std::string::npos) << err.reason;

  // Same connection keeps working afterwards: a query, then stats.
  const WireResponse answer = client.query(tiny_query(1.0));
  ASSERT_TRUE(answer.ok()) << answer.reason;
  EXPECT_FALSE(answer.response_json.empty());
  const WireResponse stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.stats_json.find("\"malformed_frames\":3"),
            std::string::npos);
  server.shutdown();
}

TEST(DesignServer, OversizedFramesAreDroppedAndTheConnectionSurvives) {
  ServerConfig config = loopback_config();
  config.max_frame_bytes = 512;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, config);
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  client.send_raw(std::string(4096, 'z'));
  const WireResponse err = client.recv_response();
  EXPECT_EQ(err.status, "error");
  EXPECT_NE(err.reason.find("exceeds"), std::string::npos);

  const WireResponse stats = client.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.stats_json.find("\"oversized_frames\":1"),
            std::string::npos);
  server.shutdown();
}

TEST(DesignServer, ConcurrentConnectionsAreByteIdenticalAtAnyWidth) {
  const std::string store_path = temp_store_path("net_determinism.store");
  auto store = std::make_shared<serve::EvaluationStore>(store_path);

  // Four distinct queries, warmed into the store once; the reference bytes
  // are what a fresh in-process service answers out of the warm store.
  std::vector<serve::DesignQuery> unique;
  for (const double mbps : {1.0, 2.0, 3.0, 4.0}) unique.push_back(tiny_query(mbps));
  {
    serve::ServiceConfig config;
    config.store = store;
    serve::DesignService warmer(config);
    for (const auto& query : unique) warmer.submit(query);
  }
  std::vector<std::string> reference(unique.size());
  {
    serve::ServiceConfig config;
    config.store = store;
    serve::DesignService ref_service(config);
    for (std::size_t i = 0; i < unique.size(); ++i) {
      reference[i] = serve::to_json(ref_service.submit(unique[i]));
    }
  }

  // The mixed query set: 32 queries cycling over the four uniques.
  constexpr std::size_t kQueries = 32;
  for (const std::size_t connections : {std::size_t{1}, std::size_t{4},
                                        std::size_t{16}}) {
    serve::ServiceConfig config;
    config.store = store;
    auto service = std::make_shared<serve::DesignService>(config);
    DesignServer server(service, loopback_config());
    server.start();

    std::vector<std::vector<std::string>> got(connections);
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < connections; ++c) {
      workers.emplace_back([&, c] {
        DesignClient client;
        client.connect("127.0.0.1", server.port());
        std::vector<std::string> ids;
        for (std::size_t q = c; q < kQueries; q += connections) {
          std::string id = "w";
          id += std::to_string(q);
          client.send_query(id, unique[q % unique.size()]);
          ids.push_back(id);
        }
        for (const std::string& id : ids) {
          const WireResponse response = client.recv_matching(id);
          ASSERT_TRUE(response.ok()) << response.reason;
          got[c].push_back(response.response_json);
        }
      });
    }
    for (auto& worker : workers) worker.join();
    server.shutdown();

    for (std::size_t c = 0; c < connections; ++c) {
      std::size_t k = 0;
      for (std::size_t q = c; q < kQueries; q += connections, ++k) {
        EXPECT_EQ(got[c][k], reference[q % unique.size()])
            << "connections=" << connections << " query=" << q;
      }
    }
  }
  std::remove(store_path.c_str());
}

TEST(DesignServer, WorkerShardConnectionMatrixIsByteIdentical) {
  const std::string store_path = temp_store_path("net_matrix.store");

  // Four distinct queries, warmed once; the reference bytes are what a
  // fresh in-process service answers out of the warm store.
  std::vector<serve::DesignQuery> unique;
  for (const double mbps : {1.0, 2.0, 3.0, 4.0}) {
    unique.push_back(tiny_query(mbps));
  }
  {
    serve::ServiceConfig config;
    config.store = std::make_shared<serve::EvaluationStore>(store_path);
    serve::DesignService warmer(config);
    for (const auto& query : unique) warmer.submit(query);
  }
  std::vector<std::string> reference(unique.size());
  {
    serve::ServiceConfig config;
    config.store = std::make_shared<serve::EvaluationStore>(store_path);
    serve::DesignService ref_service(config);
    for (std::size_t i = 0; i < unique.size(); ++i) {
      reference[i] = serve::to_json(ref_service.submit(unique[i]));
    }
  }

  // The full decomposition matrix: every workers x shards x connections
  // point must produce exactly the reference bytes for every query.
  constexpr std::size_t kQueries = 16;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      serve::StoreConfig store_config;
      store_config.shards = shards;
      serve::ServiceConfig service_config;
      service_config.store = std::make_shared<serve::EvaluationStore>(
          store_path, store_config);
      auto service = std::make_shared<serve::DesignService>(service_config);
      ServerConfig server_config = loopback_config();
      server_config.search_workers = workers;
      DesignServer server(service, server_config);
      server.start();

      for (const std::size_t connections : {std::size_t{1}, std::size_t{4},
                                            std::size_t{16}}) {
        std::vector<std::vector<std::string>> got(connections);
        std::vector<std::thread> senders;
        for (std::size_t c = 0; c < connections; ++c) {
          senders.emplace_back([&, c] {
            DesignClient client;
            client.connect("127.0.0.1", server.port());
            std::vector<std::string> ids;
            for (std::size_t q = c; q < kQueries; q += connections) {
              std::string id = "m";
              id += std::to_string(q);
              client.send_query(id, unique[q % unique.size()]);
              ids.push_back(id);
            }
            for (const std::string& id : ids) {
              const WireResponse response = client.recv_matching(id);
              ASSERT_TRUE(response.ok()) << response.reason;
              got[c].push_back(response.response_json);
            }
          });
        }
        for (auto& sender : senders) sender.join();
        for (std::size_t c = 0; c < connections; ++c) {
          std::size_t k = 0;
          for (std::size_t q = c; q < kQueries; q += connections, ++k) {
            EXPECT_EQ(got[c][k], reference[q % unique.size()])
                << "workers=" << workers << " shards=" << shards
                << " connections=" << connections << " query=" << q;
          }
        }
      }
      server.shutdown();
      // Every decomposition leaves the corpus equivalent: migrating back
      // to one file must reproduce the single-file layout losslessly.
    }
  }
  serve::EvaluationStore final_store(store_path);
  EXPECT_GT(final_store.size(), 0u);
  std::remove(store_path.c_str());
}

TEST(DesignServer, SameFingerprintQueriesKeepArrivalOrderAcrossWorkers) {
  // Two same-fingerprint queries pipelined back-to-back: the first (big
  // budget) evaluates the space cold; the second (small budget, same
  // evaluator scope) must run AFTER it and replay from the store. If
  // multi-worker dispatch ever reordered them, the second would run cold
  // (store_hits 0) — fingerprint routing makes the order a guarantee, not
  // a race.
  const std::string store_path = temp_store_path("net_order.store");
  serve::ServiceConfig service_config;
  service_config.store_path = store_path;
  auto service = std::make_shared<serve::DesignService>(service_config);
  ServerConfig config = loopback_config();
  config.search_workers = 8;
  DesignServer server(service, config);
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  serve::DesignQuery big = tiny_query(6.0);
  big.budget.initial_points_per_dim = 3;
  big.budget.max_evaluations = 64;
  serve::DesignQuery small = tiny_query(6.0);  // same fingerprint
  small.budget.initial_points_per_dim = 2;
  small.budget.max_evaluations = 8;
  client.send_query("big", big);
  client.send_query("small", small);

  const WireResponse first = client.recv_matching("big");
  const WireResponse second = client.recv_matching("small");
  ASSERT_TRUE(first.ok()) << first.reason;
  ASSERT_TRUE(second.ok()) << second.reason;
  // The second query replayed at least part of the first one's work.
  EXPECT_EQ(second.response_json.find("\"store_hits\":0,"),
            std::string::npos)
      << second.response_json;
  server.shutdown();
  std::remove(store_path.c_str());
}

TEST(DesignServer, FastLaneAnswersCheapQueriesDuringASlowSearch) {
  auto service = std::make_shared<serve::DesignService>();
  ServerConfig config = loopback_config();
  config.search_workers = 1;  // one busy search worker: the worst case
  DesignServer server(service, config);
  server.start();

  DesignClient busy;
  busy.connect("127.0.0.1", server.port());
  busy.send_query("slow", slow_query());
  ASSERT_TRUE(wait_until([&] { return server.stats().in_flight >= 1; }));

  // With the search worker pinned, stats (inline on the I/O thread) and
  // archive_only probes (fast lane) must still answer promptly — their
  // latency stays flat instead of queueing behind the search.
  DesignClient probe;
  probe.connect("127.0.0.1", server.port());
  double worst_ms = 0.0;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const WireResponse stats = probe.stats();
    ASSERT_TRUE(stats.ok()) << stats.reason;
    serve::DesignQuery archive_probe = tiny_query();
    archive_probe.archive_only = true;
    const WireResponse archive = probe.query(archive_probe);
    ASSERT_TRUE(archive.ok()) << archive.reason;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    worst_ms = std::max(worst_ms, ms);
  }
  // The slow search is still running: the cheap round trips above did not
  // wait for it.
  EXPECT_GE(server.stats().in_flight, 1u);
  EXPECT_LT(worst_ms, 5000.0);
  const WireResponse stats = probe.stats();
  EXPECT_NE(stats.stats_json.find("\"fast_lane_queries\":5"),
            std::string::npos)
      << stats.stats_json;
  EXPECT_NE(stats.stats_json.find("\"workers\":1"), std::string::npos);
  EXPECT_NE(stats.stats_json.find("\"worker_depths\":["), std::string::npos);

  EXPECT_TRUE(busy.recv_matching("slow").ok());
  server.shutdown();
}

TEST(DesignClientRetry, BackoffScheduleIsDeterministicCappedAndDepthScaled) {
  RetryPolicy policy;
  policy.base_ms = 10.0;
  policy.cap_ms = 500.0;
  policy.depth_weight = 0.1;
  policy.jitter_key = 42;

  // Pure function: the same (attempt, depth, counter) replays exactly.
  EXPECT_EQ(retry_backoff_ms(policy, 0, 0, 0),
            retry_backoff_ms(policy, 0, 0, 0));
  // Half-jitter bounds: exp/2 <= backoff < exp.
  for (std::size_t attempt = 0; attempt < 12; ++attempt) {
    const double exp_ms =
        std::min(policy.cap_ms, policy.base_ms * std::pow(2.0, attempt));
    const double ms = retry_backoff_ms(policy, attempt, 0, attempt);
    EXPECT_GE(ms, exp_ms / 2.0) << attempt;
    EXPECT_LT(ms, exp_ms) << attempt;
  }
  // The queue-depth hint scales the wait: a deeply backed-up server earns
  // a longer backoff at the same attempt/counter.
  EXPECT_GT(retry_backoff_ms(policy, 0, 100, 7),
            retry_backoff_ms(policy, 0, 0, 7));
  // The cap is a real cap even with a huge depth hint.
  EXPECT_LT(retry_backoff_ms(policy, 20, 100000, 3), policy.cap_ms);
  // Distinct jitter keys desynchronize two otherwise-identical clients.
  RetryPolicy other = policy;
  other.jitter_key = 43;
  EXPECT_NE(retry_backoff_ms(policy, 2, 0, 5),
            retry_backoff_ms(other, 2, 0, 5));
}

TEST(DesignClientRetry, RetriesOverloadedRejectionsUntilAdmitted) {
  ServerConfig config = loopback_config();
  config.max_pending_queries = 1;
  config.search_workers = 1;
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, config);
  server.start();

  DesignClient busy;
  busy.connect("127.0.0.1", server.port());
  busy.send_query("slow", slow_query());
  ASSERT_TRUE(wait_until([&] { return server.stats().in_flight >= 1; }));
  busy.send_query("fill", tiny_query(2.0));  // occupies the 1-slot queue
  ASSERT_TRUE(wait_until([&] { return server.stats().queue_depth >= 1; }));

  // The retrying client is rejected at first (queue full behind the slow
  // search) and then admitted once the backlog drains — the caller sees
  // one ok response, never a rejection. Its retry budget is unbounded, so
  // the test holds however long the slow search takes (seconds in an
  // optimized build, several times that under TSan); the first attempt
  // only needs the search to outlast one loopback round trip.
  DesignClient patient;
  patient.connect("127.0.0.1", server.port());
  RetryPolicy policy;
  policy.max_retries = std::numeric_limits<std::size_t>::max();
  policy.base_ms = 5.0;
  policy.cap_ms = 50.0;
  policy.jitter_key = 7;
  patient.set_retry_policy(policy);
  const WireResponse response = patient.query(tiny_query(3.0));
  ASSERT_TRUE(response.ok()) << response.status << ": " << response.reason;
  const ClientStats& stats = patient.client_stats();
  EXPECT_GE(stats.overloaded_rejections, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.gave_up, 0u);
  EXPECT_GT(stats.backoff_ms_total, 0.0);
  EXPECT_EQ(stats.queries_sent, stats.retries + 1);

  EXPECT_TRUE(busy.recv_matching("slow").ok());
  EXPECT_TRUE(busy.recv_matching("fill").ok());
  server.shutdown();
}

TEST(DesignClient, StatsAreResetByReconnectAndOnDemand) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  serve::DesignQuery probe = tiny_query();
  probe.archive_only = true;  // instant: no search behind the counter
  ASSERT_TRUE(client.query(probe).ok());
  EXPECT_EQ(client.client_stats().queries_sent, 1u);
  EXPECT_GT(client.client_stats().wire_bytes_sent, 0u);
  EXPECT_GT(client.client_stats().wire_bytes_received, 0u);

  // Reconnecting opens a fresh accounting window: nothing bleeds across,
  // retry/backoff counters included.
  client.connect("127.0.0.1", server.port());
  EXPECT_EQ(client.client_stats().queries_sent, 0u);
  EXPECT_EQ(client.client_stats().wire_bytes_sent, 0u);
  EXPECT_EQ(client.client_stats().wire_bytes_received, 0u);
  EXPECT_EQ(client.client_stats().retries, 0u);
  EXPECT_EQ(client.client_stats().overloaded_rejections, 0u);
  EXPECT_EQ(client.client_stats().gave_up, 0u);
  EXPECT_EQ(client.client_stats().backoff_ms_total, 0.0);

  ASSERT_TRUE(client.query(probe).ok());
  EXPECT_EQ(client.client_stats().queries_sent, 1u);
  client.reset_stats();
  EXPECT_EQ(client.client_stats().queries_sent, 0u);
  EXPECT_EQ(client.client_stats().wire_bytes_sent, 0u);
  server.shutdown();
}

TEST(DesignClient, WireByteCountersMatchTheFramesOnTheWire) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  client.send_stats("s");
  const WireResponse response = client.recv_matching("s");
  ASSERT_TRUE(response.ok());
  Request request;
  request.id = "s";
  request.kind = RequestKind::Stats;
  EXPECT_EQ(client.client_stats().wire_bytes_sent, to_json(request).size() + 1);
  EXPECT_EQ(client.client_stats().wire_bytes_received,
            make_stats_response("s", response.stats_json).size() + 1);
  EXPECT_EQ(client.client_stats().queries_sent, 0u);  // stats is no query
  server.shutdown();
}

TEST(DesignClient, SendRawRefusesAPayloadWithANewline) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  // Two frames smuggled into one payload would desynchronize the ids;
  // the client refuses before a byte reaches the socket.
  EXPECT_THROW(client.send_raw("{\"id\":\"a\",\"kind\":\"stats\"}\n{}"),
               std::logic_error);
  EXPECT_EQ(client.client_stats().wire_bytes_sent, 0u);

  ASSERT_TRUE(client.stats().ok());
  EXPECT_EQ(server.stats().malformed_frames, 0u);
  EXPECT_EQ(server.stats().stats_requests, 1u);
  server.shutdown();
}

TEST(DesignServer, RequestsWrittenOneByteAtATimeAreAnswered) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  serve::DesignQuery probe = tiny_query();
  probe.archive_only = true;  // instant: the framing is under test
  Request query;
  query.id = "drip-q";
  query.kind = RequestKind::Query;
  query.query = probe;
  Request stats;
  stats.id = "drip-s";
  stats.kind = RequestKind::Stats;
  const std::string wire = to_json(query) + "\n" + to_json(stats) + "\n";
  for (const char byte : wire) {
    send_wire(client, std::string(1, byte));
    std::this_thread::sleep_for(200us);  // let the server see short reads
  }

  const WireResponse answer = client.recv_matching("drip-q");
  ASSERT_TRUE(answer.ok()) << answer.reason;
  serve::DesignService reference;
  EXPECT_EQ(answer.response_json, serve::to_json(reference.submit(probe)));
  EXPECT_TRUE(client.recv_matching("drip-s").ok());
  EXPECT_EQ(server.stats().malformed_frames, 0u);
  server.shutdown();
}

TEST(DesignServer, SeveralFramesInOneWriteAreEachAnswered) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  // Keep-alive blank lines, CRLF and LF terminators, and a malformed
  // frame between two good ones, all in a single write.
  send_wire(client,
            "\r\n{\"id\":\"p1\",\"kind\":\"stats\"}\n\n"
            "{\"id\":\"p2\",\"kind\":\"bogus\"}\r\n"
            "{\"id\":\"p3\",\"kind\":\"stats\"}\n");
  EXPECT_TRUE(client.recv_matching("p1").ok());
  const WireResponse bad = client.recv_matching("p2");
  EXPECT_EQ(bad.status, "error");
  EXPECT_FALSE(bad.reason.empty());
  EXPECT_TRUE(client.recv_matching("p3").ok());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.stats_requests, 2u);
  EXPECT_EQ(stats.malformed_frames, 1u);
  EXPECT_EQ(stats.accepted_connections, 1u);
  server.shutdown();
}

TEST(DesignServer, CrlfTerminatedQueryGetsTheSameAnswerAsLf) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.query(tiny_query()).ok());  // feed the archive

  serve::DesignQuery probe = tiny_query();
  probe.archive_only = true;
  Request request;
  request.kind = RequestKind::Query;
  request.query = probe;
  request.id = "lf";
  send_wire(client, to_json(request) + "\n");
  request.id = "crlf";
  send_wire(client, to_json(request) + "\r\n");
  const WireResponse lf = client.recv_matching("lf");
  const WireResponse crlf = client.recv_matching("crlf");
  ASSERT_TRUE(lf.ok()) << lf.reason;
  ASSERT_TRUE(crlf.ok()) << crlf.reason;
  EXPECT_FALSE(crlf.response_json.empty());
  EXPECT_EQ(crlf.response_json, lf.response_json);
  server.shutdown();
}

TEST(DesignServerFuzz, EveryByteFlipGetsOneAnswerAndTheConnectionSurvives) {
  // Flip every byte of a well-formed stats request in turn on ONE
  // connection. Each damaged frame gets exactly one answer — ok when the
  // flip still leaves a valid request (say, another id), an error
  // otherwise — and a follow-up request is still answered: the server
  // never wedges, never disconnects, never double-reports.
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();
  DesignClient client;
  client.connect("127.0.0.1", server.port());

  Request probe;
  probe.id = "fz";
  probe.kind = RequestKind::Stats;
  const std::string frame = to_json(probe);

  std::size_t expected_errors = 0;
  for (std::size_t flip = 0; flip < frame.size(); ++flip) {
    std::string corrupted = frame;
    corrupted[flip] = static_cast<char>(corrupted[flip] ^ 0x01);
    bool valid = true;
    std::string id;
    try {
      id = parse_request(corrupted).id;
    } catch (const std::runtime_error&) {
      valid = false;
      id = best_effort_request_id(corrupted);
      ++expected_errors;
    }
    client.send_raw(corrupted);

    const WireResponse answer = client.recv_response();
    EXPECT_EQ(answer.status, valid ? "ok" : "error") << "flip at byte " << flip;
    EXPECT_EQ(answer.id, id) << "flip at byte " << flip;
    if (!valid) {
      EXPECT_FALSE(answer.reason.empty()) << "flip at byte " << flip;
    }

    const std::string follow_up = client.next_id();
    client.send_stats(follow_up);
    const WireResponse ok = client.recv_matching(follow_up);
    EXPECT_TRUE(ok.ok()) << "flip at byte " << flip << ": " << ok.reason;
  }

  EXPECT_GT(expected_errors, 0u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.malformed_frames, expected_errors);
  EXPECT_EQ(stats.stats_requests, 2 * frame.size() - expected_errors);
  EXPECT_EQ(stats.accepted_connections, 1u);  // one connection throughout
  server.shutdown();
}

TEST(ServerConfigEnv, ParsesWorkerCount) {
  ::setenv("METACORE_SERVER_WORKERS", "4", 1);
  EXPECT_EQ(ServerConfig::from_env().search_workers, 4u);
  ::setenv("METACORE_SERVER_WORKERS", "0", 1);
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
  ::setenv("METACORE_SERVER_WORKERS", "xyz", 1);
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
  ::setenv("METACORE_SERVER_WORKERS", "999", 1);
  EXPECT_THROW(ServerConfig::from_env(), std::invalid_argument);
  ::unsetenv("METACORE_SERVER_WORKERS");
  EXPECT_EQ(ServerConfig::from_env().search_workers, 0u);  // auto
}

TEST(DesignServer, OverloadReturnsStructuredRejections) {
  ServerConfig config = loopback_config();
  config.max_pending_queries = 1;  // tiny admission quota
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, config);
  server.start();

  DesignClient busy;
  busy.connect("127.0.0.1", server.port());
  busy.send_query("slow", slow_query());
  // Wait until the dispatcher is actually inside submit_batch, so the
  // queue stays occupied by whatever we send next.
  ASSERT_TRUE(wait_until([&] { return server.stats().in_flight >= 1; }));

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  client.send_query("fill", tiny_query(2.0));  // occupies the 1-slot queue
  for (int i = 0; i < 6; ++i) {
    client.send_query("burst" + std::to_string(i), tiny_query(3.0));
  }

  std::size_t rejected = 0;
  std::size_t ok = 0;
  for (int i = 0; i < 7; ++i) {
    const WireResponse response = client.recv_response();
    if (response.rejected()) {
      EXPECT_EQ(response.reason, "overloaded");
      ++rejected;
    } else {
      ASSERT_TRUE(response.ok()) << response.reason;
      ++ok;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(rejected + ok, 7u);
  // The slow query itself completes normally.
  EXPECT_TRUE(busy.recv_matching("slow").ok());
  EXPECT_GE(server.stats().queries_rejected, rejected);
  server.shutdown();
}

TEST(DesignServer, GracefulDrainFinishesInFlightAndFlushesTheStore) {
  const std::string store_path = temp_store_path("net_drain.store");
  serve::ServiceConfig service_config;
  service_config.store_path = store_path;
  auto service = std::make_shared<serve::DesignService>(service_config);
  DesignServer server(service, loopback_config());
  server.start();

  DesignClient client;
  client.connect("127.0.0.1", server.port());
  std::vector<std::string> ids;
  for (const double mbps : {1.0, 2.0, 3.0, 4.0}) {
    // Appended piecewise: `"d" + std::to_string(...)` trips a false
    // -Wrestrict in GCC 12 Release builds.
    std::string id = "d";
    id += std::to_string(static_cast<int>(mbps));
    client.send_query(id, tiny_query(mbps));
    ids.push_back(id);
  }
  // Wait until all four frames cleared admission (queries_received counts
  // decoded query frames, and nothing rejects before the drain begins) —
  // otherwise shutdown() could race the client's sends and legitimately
  // answer a late frame with a `draining` rejection.
  ASSERT_TRUE(wait_until([&] {
    const ServerStats stats = server.stats();
    return stats.queries_received >= ids.size();
  }));
  ASSERT_EQ(server.stats().queries_rejected, 0u);

  // Drain while the batch is mid-flight: every admitted query must still
  // be answered before the server closes the connection. The join guard
  // keeps an unexpected client-side throw from terminating the process
  // with the drainer still joinable.
  struct JoinGuard {
    std::thread thread;
    ~JoinGuard() {
      if (thread.joinable()) thread.join();
    }
  } drainer{std::thread([&] { server.shutdown(); })};
  for (const std::string& id : ids) {
    const WireResponse response = client.recv_matching(id);
    EXPECT_TRUE(response.ok()) << response.reason;
  }
  EXPECT_THROW(client.recv_response(), std::runtime_error);  // clean EOF
  drainer.thread.join();
  EXPECT_FALSE(server.running());

  // New connections are refused after drain.
  DesignClient late;
  EXPECT_THROW(late.connect("127.0.0.1", server.port(), 2000),
               std::runtime_error);

  // The journaled evaluations survived the drain: a fresh store replays
  // them.
  serve::EvaluationStore reopened(store_path);
  EXPECT_GT(reopened.size(), 0u);
  std::remove(store_path.c_str());
}

TEST(DesignServer, ClientVanishingMidQueryDoesNotKillTheServer) {
  auto service = std::make_shared<serve::DesignService>();
  DesignServer server(service, loopback_config());
  server.start();

  {
    DesignClient doomed;
    doomed.connect("127.0.0.1", server.port());
    doomed.send_query("gone", slow_query());
    ASSERT_TRUE(wait_until([&] { return server.stats().in_flight >= 1; }));
    doomed.close();  // vanish while the query is executing
  }

  // The query still completes (and would have fed the store); only the
  // delivery is counted as dropped — and the server keeps serving.
  ASSERT_TRUE(
      wait_until([&] { return server.stats().dropped_responses >= 1; }));
  DesignClient client;
  client.connect("127.0.0.1", server.port());
  const WireResponse response = client.query(tiny_query());
  EXPECT_TRUE(response.ok()) << response.reason;
  server.shutdown();
  EXPECT_GE(server.stats().dropped_responses, 1u);
}

}  // namespace
}  // namespace metacore::net
