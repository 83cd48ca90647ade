#include "net/client.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace metacore::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

double retry_backoff_ms(const RetryPolicy& policy, std::size_t attempt,
                        std::size_t queue_depth,
                        std::uint64_t jitter_counter) {
  double exp_ms = policy.base_ms *
                  std::ldexp(1.0, static_cast<int>(std::min<std::size_t>(
                                      attempt, 62))) *
                  (1.0 + policy.depth_weight * static_cast<double>(queue_depth));
  exp_ms = std::min(exp_ms, policy.cap_ms);
  // Half-jitter: never below exp/2 (the backoff keeps its exponential
  // floor) and never above exp (the cap is a real cap). u in [0, 1).
  const double u =
      static_cast<double>(util::CounterRng::at(policy.jitter_key,
                                               jitter_counter)) *
      0x1p-64;
  return exp_ms / 2.0 + u * (exp_ms / 2.0);
}

DesignClient::~DesignClient() { close(); }

void DesignClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void DesignClient::connect(const std::string& host, int port,
                           int timeout_ms) {
  close();
  timeout_ms_ = timeout_ms;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    throw std::runtime_error("resolve " + host + ": " + ::gai_strerror(rc));
  }

  int last_errno = 0;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                            ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      fd_ = fd;
      break;
    }
    last_errno = errno;
    ::close(fd);
  }
  ::freeaddrinfo(results);
  if (fd_ < 0) {
    errno = last_errno;
    throw_errno("connect to " + host + ":" + std::to_string(port));
  }

  // A fresh connection is a fresh protocol session: no leftover decoder
  // bytes, no buffered responses from the old socket, ids from c1, and —
  // the explicit stats lifetime — zeroed counters.
  decoder_ = FrameDecoder();
  out_of_order_.clear();
  next_seq_ = 0;
  jitter_counter_ = 0;
  stats_ = ClientStats{};
}

void DesignClient::send_all(const std::string& bytes) {
  if (fd_ < 0) throw std::runtime_error("client is not connected");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw_errno("send");
  }
  stats_.wire_bytes_sent += bytes.size();
}

void DesignClient::send_query(const std::string& id,
                              const serve::DesignQuery& query) {
  Request request;
  request.id = id;
  request.kind = RequestKind::Query;
  request.query = query;
  send_raw(to_json(request));
  ++stats_.queries_sent;
}

void DesignClient::send_stats(const std::string& id) {
  Request request;
  request.id = id;
  request.kind = RequestKind::Stats;
  send_raw(to_json(request));
}

void DesignClient::send_raw(const std::string& payload) {
  std::string framed;
  framed.reserve(payload.size() + 1);
  append_frame(framed, payload);
  send_all(framed);
}

WireResponse DesignClient::recv_response() {
  if (fd_ < 0) throw std::runtime_error("client is not connected");
  char buf[65536];
  for (;;) {
    if (auto frame = decoder_.next()) {
      if (frame->oversized) {
        throw std::runtime_error("response frame exceeds the client limit");
      }
      return parse_wire_response(frame->payload);
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      stats_.wire_bytes_received += static_cast<std::size_t>(n);
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      throw std::runtime_error("connection closed by server");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw std::runtime_error("timed out waiting for a response (" +
                               std::to_string(timeout_ms_) + " ms)");
    }
    throw_errno("recv");
  }
}

WireResponse DesignClient::recv_matching(const std::string& id) {
  auto it = out_of_order_.find(id);
  if (it != out_of_order_.end()) {
    WireResponse response = std::move(it->second);
    out_of_order_.erase(it);
    return response;
  }
  for (;;) {
    WireResponse response = recv_response();
    if (response.id == id) return response;
    out_of_order_[response.id] = std::move(response);
  }
}

std::string DesignClient::next_id() {
  std::string id = "c";
  id += std::to_string(++next_seq_);
  return id;
}

WireResponse DesignClient::query(const serve::DesignQuery& query) {
  for (std::size_t attempt = 0;; ++attempt) {
    const std::string id = next_id();
    send_query(id, query);
    WireResponse response = recv_matching(id);
    // Only `overloaded` is worth waiting out; `draining` means the server
    // is going away and any other status is a real answer.
    if (!response.rejected() || response.reason != "overloaded") {
      return response;
    }
    ++stats_.overloaded_rejections;
    if (attempt >= retry_.max_retries) {
      if (retry_.max_retries > 0) ++stats_.gave_up;
      return response;
    }
    const double ms = retry_backoff_ms(retry_, attempt, response.queue_depth,
                                       jitter_counter_++);
    stats_.backoff_ms_total += ms;
    ++stats_.retries;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

WireResponse DesignClient::stats() {
  const std::string id = next_id();
  send_stats(id);
  return recv_matching(id);
}

}  // namespace metacore::net
