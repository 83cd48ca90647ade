#include "wire.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <stdexcept>
#include <string_view>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>

#include "net/protocol.hpp"

extern char** environ;

namespace perfbench {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    fail("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("fcntl");
  }
}

constexpr std::string_view kIdPrefix = "{\"id\":\"";

/// Index of a response line's numeric request id, or npos.
std::size_t line_index(std::string_view line) {
  if (line.substr(0, kIdPrefix.size()) != kIdPrefix) return std::string::npos;
  std::size_t index = 0;
  std::size_t i = kIdPrefix.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') {
    return std::string::npos;
  }
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    index = index * 10 + static_cast<std::size_t>(line[i] - '0');
  }
  return i < line.size() && line[i] == '"' ? index : std::string::npos;
}

bool has_status(std::string_view line, const char* status) {
  return line.find(std::string("\"status\":\"") + status + '"') !=
         std::string::npos;
}

std::size_t number_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 3, nullptr, 10);
}

/// Owns one file descriptor.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    std::swap(fd_, other.fd_);
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

/// How long a stage waits for outstanding responses after its last send.
constexpr double kDrainTimeoutS = 60.0;

/// The server went away in the middle of a stage.
struct ServerLost {};

/// A non-blocking connection inside the stage loop.
struct Peer {
  Fd fd;
  std::string out;
  std::size_t out_at = 0;
  std::string in;
  bool want_write = false;
};

}  // namespace

// --- PinnedGenerator ------------------------------------------------------

PinnedGenerator::PinnedGenerator() {
  if (::sched_getaffinity(0, sizeof original_, &original_) != 0 ||
      CPU_COUNT(&original_) < 2) {
    return;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) last = cpu;
  }
  others_ = original_;
  CPU_CLR(last, &others_);
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(last, &mine);
  pinned_ = ::sched_setaffinity(0, sizeof mine, &mine) == 0;
}

PinnedGenerator::~PinnedGenerator() {
  if (pinned_) ::sched_setaffinity(0, sizeof original_, &original_);
}

// --- IdleSpinners ---------------------------------------------------------

IdleSpinners::IdleSpinners(const cpu_set_t* cpus) {
  for (int cpu = 0; cpus != nullptr && cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, cpus)) continue;
    threads_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      const sched_param param{};
      if (::sched_setaffinity(0, sizeof one, &one) != 0 ||
          ::sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
        return;  // never spin at normal priority
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

// --- ServerProcess --------------------------------------------------------

ServerProcess::ServerProcess(const std::string& binary,
                             const std::string& store, const cpu_set_t* cpus,
                             std::vector<std::string> settings) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) fail("pipe");
  const std::vector<std::string> args = {binary, "--listen", "0", "--store",
                                         store};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  // The caller's environment with the settings the benchmark fixes.
  std::vector<std::string> fixed = std::move(settings);
  fixed.push_back("METACORE_STORE_SHARDS=4");
  fixed.push_back("METACORE_SERVER_QUEUE=65536");
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    bool overridden = false;
    for (const std::string& f : fixed) {
      overridden |= entry.compare(0, f.find('=') + 1, f, 0, f.find('=') + 1) == 0;
    }
    if (!overridden) envp.push_back(*e);
  }
  for (const std::string& f : fixed) envp.push_back(const_cast<char*>(f.c_str()));
  envp.push_back(nullptr);

  // The child inherits the spawning thread's CPU affinity.
  cpu_set_t own;
  const bool confine = cpus != nullptr &&
                       ::sched_getaffinity(0, sizeof own, &own) == 0 &&
                       ::sched_setaffinity(0, sizeof *cpus, cpus) == 0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (confine) ::sched_setaffinity(0, sizeof own, &own);
  ::close(out[1]);
  stdout_fd_ = out[0];
  if (rc != 0) {
    pid_ = -1;
    errno = rc;
    stop();
    fail("posix_spawn " + binary);
  }

  // The server prints its store size, then "listening on 127.0.0.1:PORT".
  static const std::string marker = "listening on 127.0.0.1:";
  std::string text;
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  std::size_t at = std::string::npos;
  while ((at = text.find(marker)) == std::string::npos ||
         text.find('\n', at) == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd pfd{stdout_fd_, POLLIN, 0};
    char buf[256];
    ssize_t got = 0;
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0 ||
        (got = ::read(stdout_fd_, buf, sizeof buf)) <= 0) {
      stop();
      throw std::runtime_error("the design server did not start listening: " +
                               text);
    }
    text.append(buf, static_cast<std::size_t>(got));
  }
  port_ = std::atoi(text.c_str() + at + marker.size());
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ > 0) {
    int status = 0;
    pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == 0) ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (got == 0 && (got = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (got == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    // A SIGTERM drain exits normally; only a crash ends on a signal.
    if (got != 0 && WIFSIGNALED(status)) signal_ = WTERMSIG(status);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

// --- Connection -----------------------------------------------------------

Connection::Connection(int port) : fd_(connect_loopback(port)) {
  timeval timeout{300, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Connection::round_trip(const std::string& payload) {
  const std::string frame = payload + '\n';
  for (std::size_t at = 0; at < frame.size();) {
    const ssize_t n = ::send(fd_, frame.data() + at, frame.size() - at,
                             MSG_NOSIGNAL);
    if (n <= 0) fail("send");
    at += static_cast<std::size_t>(n);
  }
  sent_ += frame.size();
  std::size_t newline = 0;
  while ((newline = inbox_.find('\n')) == std::string::npos) {
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) fail("recv");
    inbox_.append(buf, static_cast<std::size_t>(n));
    received_ += static_cast<std::size_t>(n);
  }
  std::string line = inbox_.substr(0, newline);
  inbox_.erase(0, newline + 1);
  return line;
}

// --- Open-loop stage ------------------------------------------------------

std::string query_frame(const std::string& id, const std::string& query_json) {
  return "{\"id\":\"" + id + "\",\"kind\":\"query\",\"query\":" + query_json +
         "}";
}

std::string response_body(const std::string& line) {
  if (!has_status(line, "ok")) return {};
  return metacore::net::extract_raw_member(line, "response");
}

StageResult run_stage(int port, const std::vector<Send>& schedule,
                      const std::vector<QueryEntry>& queries,
                      const StageOptions& options) {
  StageResult result;
  result.outcomes.resize(schedule.size());
  if (schedule.empty()) return result;

  std::vector<Peer> peers(std::max<std::size_t>(1, options.connections));
  const bool sample_stats = options.stats_interval_s > 0.0;
  Peer stats_peer;
  const Fd epfd(::epoll_create1(EPOLL_CLOEXEC));
  const Fd timer(::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC));
  if (epfd.get() < 0 || timer.get() < 0) fail("epoll/timerfd");
  const auto watch = [&](int fd, std::uint64_t tag, std::uint32_t events,
                         int op) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    if (::epoll_ctl(epfd.get(), op, fd, &ev) != 0) fail("epoll_ctl");
  };
  const std::uint64_t kTimerTag = 1u << 20, kStatsTag = kTimerTag + 1;
  watch(timer.get(), kTimerTag, EPOLLIN, EPOLL_CTL_ADD);
  for (std::size_t i = 0; i < peers.size(); ++i) {
    peers[i].fd = Fd(connect_loopback(port));
    set_nonblocking(peers[i].fd.get());
    watch(peers[i].fd.get(), i, EPOLLIN, EPOLL_CTL_ADD);
  }
  if (sample_stats) {
    stats_peer.fd = Fd(connect_loopback(port));
    set_nonblocking(stats_peer.fd.get());
    watch(stats_peer.fd.get(), kStatsTag, EPOLLIN, EPOLL_CTL_ADD);
  }

  const auto flush = [&](Peer& peer, std::uint64_t tag) {
    while (peer.out_at < peer.out.size()) {
      const ssize_t n =
          ::send(peer.fd.get(), peer.out.data() + peer.out_at,
                 peer.out.size() - peer.out_at, MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) throw ServerLost{};
      peer.out_at += static_cast<std::size_t>(n);
      if (tag != kStatsTag) result.bytes_sent += static_cast<std::size_t>(n);
    }
    if (peer.out_at == peer.out.size()) {
      peer.out.clear();
      peer.out_at = 0;
    }
    const bool want = !peer.out.empty();
    if (want != peer.want_write) {
      peer.want_write = want;
      watch(peer.fd.get(), tag, want ? EPOLLIN | EPOLLOUT : EPOLLIN,
            EPOLL_CTL_MOD);
    }
  };

  std::size_t next = 0, answered = 0, stats_sent = 0;
  bool stats_outstanding = false;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  Clock::time_point last_send = t0, last_answer = t0;
  Clock::time_point next_stats = t0;

  // Per query, the expected "ok" response line after its id, built on
  // first use: answers are compared without building the whole line.
  std::vector<std::string> expected_tail(queries.size());
  // Likewise the request frame after its id.
  std::vector<std::string> frame_tail(queries.size());
  const auto on_line = [&](std::string_view line, Clock::time_point now) {
    const std::size_t index = line_index(line);
    if (index >= schedule.size()) return;
    Outcome& outcome = result.outcomes[index];
    if (outcome.answered) return;
    outcome.answered = true;
    ++answered;
    last_answer = now;
    outcome.latency_ms = seconds_between(at(schedule[index].due_s), now) * 1e3;
    outcome.ok = has_status(line, "ok");
    outcome.rejected = !outcome.ok && has_status(line, "rejected");
    if (!outcome.ok) {
      outcome.correct = 0;
      return;
    }
    const QueryEntry& entry = queries[schedule[index].query];
    if (entry.expected.empty()) {
      outcome.body = response_body(std::string(line));
      return;
    }
    std::string& tail = expected_tail[schedule[index].query];
    if (tail.empty()) {
      tail = metacore::net::make_design_response("", entry.expected)
                 .substr(kIdPrefix.size() + 1);
    }
    const std::size_t id_end = line.find('"', kIdPrefix.size());
    outcome.correct = line.substr(id_end + 1) == tail ? 1 : 0;
  };

  epoll_event events[16];
  try {
  while (answered < schedule.size()) {
    Clock::time_point now = Clock::now();
    while (next < schedule.size() && at(schedule[next].due_s) <= now) {
      Peer& peer = peers[next % peers.size()];
      std::string& frame = frame_tail[schedule[next].query];
      if (frame.empty()) {
        frame = query_frame("", queries[schedule[next].query].json)
                    .substr(kIdPrefix.size()) + '\n';
      }
      peer.out += kIdPrefix;
      peer.out += std::to_string(next);
      peer.out += frame;
      result.outcomes[next].late_ms =
          seconds_between(at(schedule[next].due_s), now) * 1e3;
      flush(peer, next % peers.size());
      last_send = now;
      ++next;
      now = Clock::now();
    }
    if (sample_stats && !stats_outstanding && now >= next_stats &&
        next < schedule.size()) {
      stats_peer.out +=
          "{\"id\":\"s" + std::to_string(stats_sent++) + "\",\"kind\":\"stats\"}\n";
      flush(stats_peer, kStatsTag);
      stats_outstanding = true;
      next_stats = now + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options.stats_interval_s));
    }
    if (next == schedule.size() &&
        seconds_between(std::max(last_send, last_answer), now) >
            kDrainTimeoutS) {
      break;
    }

    Clock::time_point wake =
        next < schedule.size()
            ? at(schedule[next].due_s)
            : std::max(last_send, last_answer) +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(kDrainTimeoutS));
    if (sample_stats && !stats_outstanding && next < schedule.size()) {
      wake = std::min(wake, next_stats);
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        wake.time_since_epoch())
                        .count();
    itimerspec spec{};
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
      spec.it_value.tv_nsec = 1;
    }
    if (!options.spin) {
      ::timerfd_settime(timer.get(), TFD_TIMER_ABSTIME, &spec, nullptr);
    }

    const int n = ::epoll_wait(epfd.get(), events, 16, options.spin ? 0 : -1);
    if (n < 0 && errno != EINTR) fail("epoll_wait");
    const Clock::time_point woke = Clock::now();
    for (int e = 0; e < n; ++e) {
      const std::uint64_t tag = events[e].data.u64;
      if (tag == kTimerTag) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(timer.get(), &expirations, sizeof expirations);
        continue;
      }
      Peer& peer = tag == kStatsTag ? stats_peer : peers[tag];
      if (events[e].events & EPOLLOUT) flush(peer, tag);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      char buf[65536];
      for (;;) {
        const ssize_t got = ::recv(peer.fd.get(), buf, sizeof buf, 0);
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got <= 0) throw ServerLost{};
        peer.in.append(buf, static_cast<std::size_t>(got));
        if (tag != kStatsTag) {
          result.bytes_received += static_cast<std::size_t>(got);
        }
      }
      std::size_t start = 0, newline = 0;
      while ((newline = peer.in.find('\n', start)) != std::string::npos) {
        const std::string_view line =
            std::string_view(peer.in).substr(start, newline - start);
        start = newline + 1;
        if (tag == kStatsTag) {
          stats_outstanding = false;
          result.queue_depth_max = std::max(result.queue_depth_max,
                                            number_after(std::string(line), "queue_depth"));
        } else {
          on_line(line, woke);
        }
      }
      peer.in.erase(0, start);
    }
  }
  } catch (const ServerLost&) {
    // Unanswered requests stay unanswered: they count as failed.
    result.server_lost = true;
  }
  result.wall_s = seconds_between(t0, last_answer);
  return result;
}

}  // namespace perfbench
