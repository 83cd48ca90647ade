// Blocking TCP client for the networked design-query protocol. One
// connection multiplexes any number of in-flight requests: send_query /
// send_stats tag each frame with a caller-chosen id, recv_response returns
// envelopes in server order, and the query()/stats() conveniences pair the
// two (buffering any out-of-order responses so interleaved use is safe).
//
// The raw response JSON is preserved byte-exactly (WireResponse::
// response_json), so a client can compare a networked answer against an
// in-process serve::to_json(DesignService::submit(...)) result — the
// determinism tests and the warm-store smoke do exactly that.
//
// Backpressure cooperation: an overloaded server answers with a
// structured {"status":"rejected","reason":"overloaded","queue_depth":D}
// envelope instead of queueing unboundedly. With a RetryPolicy set
// (max_retries > 0), query() turns that into bounded exponential backoff
// scaled by the server's own queue-depth hint D — the deeper the queue
// the longer the wait — capped and half-jittered from the counter-RNG so
// the schedule is a pure function of (jitter_key, attempt index) and
// tests replay it exactly. "draining" rejections are terminal (the server
// is going away; waiting cannot help) and are returned as-is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "serve/service.hpp"

namespace metacore::net {

/// Client-side backoff for structured `overloaded` rejections.
struct RetryPolicy {
  /// Resends after the first rejection; 0 disables retrying entirely
  /// (the default — rejections surface to the caller unchanged).
  std::size_t max_retries = 0;
  double base_ms = 5.0;      ///< backoff scale of the first retry
  double cap_ms = 2000.0;    ///< upper bound before jitter
  /// Queue-depth weighting: the backoff scales by
  /// (1 + depth_weight * queue_depth), so a rejection from a deeply
  /// backed-up server waits proportionally longer.
  double depth_weight = 0.05;
  /// Counter-RNG stream for the jitter (util::CounterRng::at) — two
  /// clients given distinct keys desynchronize; a test fixing the key
  /// gets a bit-reproducible schedule.
  std::uint64_t jitter_key = 0;
};

/// The deterministic backoff before retry `attempt` (0-based), given the
/// `queue_depth` hint the rejection carried:
///   exp = min(cap_ms, base_ms * 2^attempt * (1 + depth_weight * depth))
///   backoff = exp/2 + u * exp/2,  u = CounterRng::at(jitter_key, counter)
/// i.e. exponential growth, depth scaling, a hard cap, and half-jitter —
/// a pure function, so tests can assert the exact schedule.
double retry_backoff_ms(const RetryPolicy& policy, std::size_t attempt,
                        std::size_t queue_depth,
                        std::uint64_t jitter_counter);

/// Per-client traffic counters (single-threaded like the client itself).
/// Lifetime: reset by connect() — each (re)connection starts a fresh
/// window, so retry accounting never bleeds across reconnects — and on
/// demand via reset_stats().
struct ClientStats {
  std::size_t queries_sent = 0;           ///< query frames shipped
  std::size_t overloaded_rejections = 0;  ///< overloaded envelopes seen
  std::size_t retries = 0;                ///< resends after backoff
  std::size_t gave_up = 0;                ///< retry budget exhausted
  double backoff_ms_total = 0.0;          ///< time spent backing off
  std::size_t wire_bytes_sent = 0;        ///< bytes shipped, framing included
  std::size_t wire_bytes_received = 0;    ///< bytes read off the socket
};

class DesignClient {
 public:
  DesignClient() = default;
  ~DesignClient();

  DesignClient(const DesignClient&) = delete;
  DesignClient& operator=(const DesignClient&) = delete;

  /// Connects to host:port (numeric IPv4 or a resolvable name such as
  /// "localhost"). `timeout_ms` bounds connect, and every subsequent
  /// send/receive. Throws std::runtime_error on failure. Resets all
  /// per-connection state: stats, decoder buffers, buffered out-of-order
  /// responses, and the id sequence.
  void connect(const std::string& host, int port, int timeout_ms = 30000);

  bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Multiplexed primitives: frame off one request without waiting.
  void send_query(const std::string& id, const serve::DesignQuery& query);
  void send_stats(const std::string& id);
  /// Ships an arbitrary payload as one frame — the malformed/garbage-frame
  /// tests use this to poke the server off the happy path.
  void send_raw(const std::string& payload);

  /// Next response envelope in server order (may belong to any in-flight
  /// id). Throws on timeout or connection loss.
  WireResponse recv_response();

  /// Blocking conveniences: send with an auto-assigned id and wait for the
  /// matching response; envelopes for other ids are buffered for later
  /// recv_matching calls. With a retry policy set, query() retries
  /// `overloaded` rejections with deterministic backoff (see above); the
  /// last rejection is returned once the budget is exhausted.
  WireResponse query(const serve::DesignQuery& query);
  WireResponse stats();

  /// Backoff policy for query(); default-constructed = no retrying.
  void set_retry_policy(RetryPolicy policy) noexcept { retry_ = policy; }
  const RetryPolicy& retry_policy() const noexcept { return retry_; }

  const ClientStats& client_stats() const noexcept { return stats_; }

  /// Zeroes the traffic counters without touching the connection (the
  /// benches bracket measurement passes with this).
  void reset_stats() noexcept { stats_ = ClientStats{}; }

  /// Waits for the response with this exact id (drawing from the buffer
  /// first, then the socket).
  WireResponse recv_matching(const std::string& id);

  /// A fresh request id unique within this client ("c1", "c2", ...).
  std::string next_id();

  int fd() const noexcept { return fd_; }

 private:
  void send_all(const std::string& bytes);

  int fd_ = -1;
  int timeout_ms_ = 30000;
  std::uint64_t next_seq_ = 0;
  FrameDecoder decoder_;
  std::map<std::string, WireResponse> out_of_order_;
  RetryPolicy retry_{};
  ClientStats stats_{};
  std::uint64_t jitter_counter_ = 0;
};

}  // namespace metacore::net
