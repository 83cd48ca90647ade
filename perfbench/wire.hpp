// The socket side of the benchmark: the design server as a child process,
// and a single-threaded open-loop load engine over up to four loopback
// connections in the text wire mode.
//
// Open loop without coordinated omission: every request has an intended
// send time from a seeded arrival schedule. The engine sends each one when
// it falls due, whatever is still outstanding, and times its latency from
// the intended send time, so a stall is charged to every request that
// queued behind it. How late the engine itself sent is recorded too.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <atomic>
#include <sched.h>
#include <sys/types.h>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Pins the calling thread (the load generator) to the last CPU it may
/// run on, for the object's lifetime, so that it and the server it drives
/// do not preempt each other; others() is the rest, for the server. With
/// a single CPU it does nothing.
class PinnedGenerator {
 public:
  PinnedGenerator();
  ~PinnedGenerator();
  PinnedGenerator(const PinnedGenerator&) = delete;
  PinnedGenerator& operator=(const PinnedGenerator&) = delete;

  /// The CPUs left for the server, or nullptr when nothing is pinned.
  const cpu_set_t* others() const { return pinned_ ? &others_ : nullptr; }

 private:
  bool pinned_ = false;
  cpu_set_t original_{}, others_{};
};

/// One spinning thread per CPU of a set, each at the lowest scheduling
/// priority (SCHED_IDLE), for the object's lifetime. Any thread that wakes
/// on such a CPU preempts its spinner at once, so the spinners take no
/// time from the server; but the CPU never halts. On a virtual machine a
/// halted CPU waits for the host to schedule it again when work arrives,
/// which on a busy host adds milliseconds to requests that take a fraction
/// of one, and by how much varies with the other tenants' load.
class IdleSpinners {
 public:
  explicit IdleSpinners(const cpu_set_t* cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The repository's design server (design_server_demo --listen 0 --store
/// PATH) as a child process, with METACORE_STORE_SHARDS=4,
/// METACORE_SERVER_QUEUE=65536 and the `NAME=value` entries of `settings`
/// in its environment; every other setting is the program's default or
/// the caller's METACORE_* environment. The
/// constructor returns once the server printed its "listening on" line;
/// stop() sends SIGTERM, which drains it, and reaps it (killing it after a
/// grace period). A non-null `cpus` confines the server to those CPUs.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& store,
                const cpu_set_t* cpus = nullptr,
                std::vector<std::string> settings = {});
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// Drains and reaps the server. Idempotent.
  void stop();
  /// The signal that ended the server on its own (0 if none).
  int signal() const { return signal_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  int signal_ = 0;
};

/// Blocking loopback connection for single round trips (stats, closed-loop
/// queries).
class Connection {
 public:
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one text frame and returns the next response line.
  std::string round_trip(const std::string& payload);
  std::size_t bytes_sent() const { return sent_; }
  std::size_t bytes_received() const { return received_; }

 private:
  int fd_ = -1;
  std::string inbox_;
  std::size_t sent_ = 0, received_ = 0;
};

/// One distinct query of a workload: its canonical JSON and, once known,
/// the reference answer (the in-process DesignService response body).
struct QueryEntry {
  std::string json;
  std::string expected;  ///< empty until the reference is computed
};

/// One scheduled request.
struct Send {
  double due_s = 0.0;        ///< intended send time from the stage start
  std::size_t query = 0;     ///< index into the query table
  int stream = 0;            ///< 0 = read stream, 1 = write stream
};

/// What happened to one scheduled request.
struct Outcome {
  double latency_ms = -1.0;  ///< response time minus intended send time
  double late_ms = 0.0;      ///< actual send time minus intended send time
  bool answered = false;
  bool ok = false;           ///< status "ok"
  bool rejected = false;     ///< status "rejected" (refused)
  /// -1 not checked yet, 0 wrong, 1 byte-identical to the reference.
  int correct = -1;
  std::string body;          ///< response body kept for a later check
};

struct StageOptions {
  std::size_t connections = 3;
  /// When > 0, a `stats` request every this many seconds on a separate
  /// connection, recording the largest queue_depth seen.
  double stats_interval_s = 0.0;
  /// Poll without sleeping, for a generator with a CPU of its own: the
  /// time its CPU would take to wake up stays out of every latency.
  bool spin = false;
};

struct StageResult {
  std::vector<Outcome> outcomes;  ///< parallel to the schedule
  double wall_s = 0.0;            ///< first due time to last response
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  std::size_t queue_depth_max = 0;
  bool server_lost = false;       ///< a connection closed mid-stage
};

/// Runs one open-loop stage. Responses whose query has a reference are
/// compared byte for byte at once; the others keep their body in
/// Outcome::body for a later check.
StageResult run_stage(int port, const std::vector<Send>& schedule,
                      const std::vector<QueryEntry>& queries,
                      const StageOptions& options);

/// The text frame payload of query request `id` for a canonical query.
std::string query_frame(const std::string& id, const std::string& query_json);

/// The response body of an "ok" design response line, or "" for any
/// other status.
std::string response_body(const std::string& line);

}  // namespace perfbench
