// Design-server demo: drive the DesignService from JSON query files —
// in-process, or over a real TCP socket in three network modes.
//
//   $ ./build/examples/design_server_demo [--store PATH]
//         [--expect-store-hits] [QUERY.json ...]            # in-process
//   $ ./build/examples/design_server_demo --listen PORT [--store PATH]
//   $ ./build/examples/design_server_demo --connect HOST:PORT
//         [--expect-store-hits] [QUERY.json ...]
//   $ ./build/examples/design_server_demo --loopback [--store PATH]
//         [--expect-store-hits] [QUERY.json ...]
//
// Each QUERY.json holds one DesignQuery document (see
// examples/queries/*.json). With no files, a built-in three-query demo
// batch runs: two Viterbi requirement points and an archive-only follow-up
// answered from the Pareto archive without a search.
//
// --listen starts the epoll server (port 0 = ephemeral, printed on
// stdout) and serves until SIGTERM/SIGINT, then drains gracefully —
// in-flight queries finish, responses flush, the store persists — and
// dumps the final stats snapshot. --connect is the matching client: it
// pipelines the whole batch over one connection (ids q1..qN), prints each
// response, and finishes with a `stats` request. --loopback runs both
// halves in one process on an ephemeral loopback port — the form the
// ctest socket smokes use.
//
// With --store PATH the evaluation store persists across invocations: run
// the demo twice against the same path and the second run answers out of
// the journal (store hits instead of simulation). --expect-store-hits
// makes that a hard check — the process fails unless at least one search
// was answered from the store (CI uses this to smoke-test warm restarts,
// in-process and over the socket).
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "robust/json.hpp"
#include "serve/service.hpp"

using namespace metacore;

namespace {

std::vector<serve::DesignQuery> builtin_batch() {
  std::vector<serve::DesignQuery> batch;
  for (const double mbps : {1.0, 2.0}) {
    serve::DesignQuery query;
    query.kind = serve::QueryKind::Viterbi;
    query.target_ber = 1e-2;
    query.esn0_db = 1.0;
    query.throughput_mbps = mbps;
    query.ber_shards = 4;
    query.budget.initial_points_per_dim = 2;
    query.budget.max_resolution = 0;
    query.budget.regions_per_level = 1;
    query.budget.max_evaluations = 32;
    batch.push_back(query);
  }
  serve::DesignQuery archive_query = batch.front();
  archive_query.archive_only = true;
  batch.push_back(archive_query);
  return batch;
}

serve::DesignQuery load_query_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read query file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return serve::parse_design_query(buf.str());
}

struct Options {
  std::string store_path;
  bool expect_store_hits = false;
  bool loopback = false;
  int listen_port = -1;           // >= 0: server mode
  std::string connect_target;     // "host:port": client mode
  std::vector<std::string> query_files;
};

net::DesignServer* g_server = nullptr;

extern "C" void demo_signal_handler(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

std::shared_ptr<serve::DesignService> make_service(const Options& opts) {
  serve::ServiceConfig config;
  config.store_path = opts.store_path;
  auto service = std::make_shared<serve::DesignService>(config);
  if (!opts.store_path.empty()) {
    std::cout << "evaluation store: " << opts.store_path << " ("
              << service->store()->size() << " entries on open)\n";
  }
  return service;
}

std::size_t store_hits_of(const std::string& response_json) {
  const robust::JsonValue doc = robust::parse_json(response_json, "response");
  const robust::JsonValue* hits = doc.find("store_hits");
  return (hits != nullptr && hits->type == robust::JsonValue::Type::Number)
             ? static_cast<std::size_t>(hits->number)
             : 0;
}

/// Pipelines the batch over one connection, prints every response, asks
/// for the server stats, and enforces --expect-store-hits. Returns the
/// process exit code.
int run_client_batch(net::DesignClient& client,
                     const std::vector<serve::DesignQuery>& batch,
                     bool expect_store_hits) {
  std::cout << "submitting " << batch.size()
            << " query(ies) over the socket...\n\n";
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::string id = "q";
    id += std::to_string(i + 1);
    client.send_query(id, batch[i]);
    ids.push_back(id);
  }
  std::size_t store_hits = 0;
  bool all_ok = true;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const net::WireResponse response = client.recv_matching(ids[i]);
    std::cout << "--- query " << i + 1 << " (" << ids[i]
              << "): " << serve::to_string(batch[i].kind)
              << (batch[i].archive_only ? " (archive-only)" : "") << "\n";
    if (!response.ok()) {
      std::cout << "status " << response.status << ": " << response.reason
                << "\n\n";
      all_ok = false;
      continue;
    }
    store_hits += store_hits_of(response.response_json);
    std::cout << response.response_json << "\n\n";
  }

  const net::WireResponse stats = client.stats();
  if (stats.ok()) {
    std::cout << "server stats: " << stats.stats_json << "\n";
  }
  std::cout << "store hits across the batch: " << store_hits << "\n";
  if (expect_store_hits && store_hits == 0) {
    std::cerr << "FAIL: --expect-store-hits set but no query was answered "
                 "from the store\n";
    return 1;
  }
  return all_ok ? 0 : 1;
}

int run_listen(const Options& opts) {
  auto service = make_service(opts);
  net::ServerConfig config = net::ServerConfig::from_env();
  config.port = opts.listen_port;
  net::DesignServer server(service, config);
  server.start();
  g_server = &server;
  std::signal(SIGTERM, demo_signal_handler);
  std::signal(SIGINT, demo_signal_handler);
  std::cout << "listening on 127.0.0.1:" << server.port()
            << " (SIGTERM/SIGINT drains and exits)\n"
            << std::flush;
  server.wait();       // until a signal requests the drain
  server.shutdown();   // joins threads once the drain completes
  g_server = nullptr;
  std::cout << "drained; final stats: " << server.stats_json() << "\n";
  return 0;
}

int run_connect(const Options& opts,
                const std::vector<serve::DesignQuery>& batch) {
  const std::size_t colon = opts.connect_target.rfind(':');
  if (colon == std::string::npos) {
    std::cerr << "--connect expects HOST:PORT\n";
    return 2;
  }
  const std::string host = opts.connect_target.substr(0, colon);
  const int port = std::stoi(opts.connect_target.substr(colon + 1));
  net::DesignClient client;
  client.connect(host, port);
  return run_client_batch(client, batch, opts.expect_store_hits);
}

int run_loopback(const Options& opts,
                 const std::vector<serve::DesignQuery>& batch) {
  auto service = make_service(opts);
  net::DesignServer server(service, net::ServerConfig::from_env());
  server.start();
  std::cout << "loopback server on 127.0.0.1:" << server.port() << "\n";
  int rc = 0;
  {
    net::DesignClient client;
    client.connect("127.0.0.1", server.port());
    rc = run_client_batch(client, batch, opts.expect_store_hits);
  }
  server.shutdown();
  std::cout << "server drained cleanly\n";
  return rc;
}

int run_in_process(const Options& opts,
                   const std::vector<serve::DesignQuery>& batch) {
  auto service = make_service(opts);
  std::cout << "submitting " << batch.size() << " query(ies)...\n\n";

  const auto responses = service->submit_batch(batch);
  std::size_t store_hits = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const serve::DesignResponse& r = responses[i];
    store_hits += r.store_hits;
    std::cout << "--- query " << i + 1 << ": "
              << serve::to_string(batch[i].kind)
              << (batch[i].archive_only ? " (archive-only)" : "") << "\n"
              << r.summary << "\n";
    if (r.feasible) {
      std::cout << "front: " << r.front.size() << " point(s) over ("
                << r.front_x << ", " << r.front_y << ")\n";
    }
    std::cout << serve::to_json(r) << "\n\n";
  }

  const serve::ServiceStats stats = service->stats();
  std::cout << "service stats: " << stats.queries << " queries, "
            << stats.searches_launched << " searches, " << stats.coalesced
            << " coalesced, " << stats.archive_answers
            << " archive answers; " << store_hits << " store hit(s)\n";

  if (opts.expect_store_hits && store_hits == 0) {
    std::cerr << "FAIL: --expect-store-hits set but no query was answered "
                 "from the store\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store") {
      if (i + 1 >= argc) {
        std::cerr << "--store requires a path\n";
        return 2;
      }
      opts.store_path = argv[++i];
    } else if (arg == "--expect-store-hits") {
      opts.expect_store_hits = true;
    } else if (arg == "--listen") {
      if (i + 1 >= argc) {
        std::cerr << "--listen requires a port (0 = ephemeral)\n";
        return 2;
      }
      opts.listen_port = std::stoi(argv[++i]);
    } else if (arg == "--connect") {
      if (i + 1 >= argc) {
        std::cerr << "--connect requires HOST:PORT\n";
        return 2;
      }
      opts.connect_target = argv[++i];
    } else if (arg == "--loopback") {
      opts.loopback = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: design_server_demo [--store PATH] [--expect-store-hits]"
             " [QUERY.json ...]\n"
             "       design_server_demo --listen PORT [--store PATH]\n"
             "       design_server_demo --connect HOST:PORT"
             " [--expect-store-hits] [QUERY.json ...]\n"
             "       design_server_demo --loopback [--store PATH]"
             " [--expect-store-hits] [QUERY.json ...]\n";
      return 0;
    } else {
      opts.query_files.push_back(arg);
    }
  }
  try {
    if (opts.listen_port >= 0) return run_listen(opts);

    std::vector<serve::DesignQuery> batch;
    if (opts.query_files.empty()) {
      batch = builtin_batch();
      std::cout << "no query files given; running the built-in demo batch\n";
    } else {
      for (const auto& path : opts.query_files) {
        batch.push_back(load_query_file(path));
      }
    }
    if (!opts.connect_target.empty()) return run_connect(opts, batch);
    if (opts.loopback) return run_loopback(opts, batch);
    return run_in_process(opts, batch);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
