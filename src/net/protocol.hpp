// Request/response envelopes for the networked design-query protocol.
//
// Every frame on the wire is one JSON object. Client → server:
//
//   {"id":"r1","kind":"query","query":{...DesignQuery...}}
//   {"id":"r2","kind":"stats"}
//
// `id` is a client-chosen tag (non-empty string, <= 256 bytes) echoed back
// verbatim on the response, so any number of requests may be in flight on
// one connection and answered out of order. Server → client:
//
//   {"id":"r1","status":"ok","response":{...DesignResponse...}}
//   {"id":"r2","status":"ok","stats":{...server stats snapshot...}}
//   {"id":"r3","status":"rejected","reason":"overloaded","queue_depth":N}
//   {"id":"" ,"status":"error","error":"<descriptive message>"}
//
// A "rejected" status is backpressure, not failure: the query was well-
// formed but the server declined to queue it (reason "overloaded" when the
// pending-query quota is full, "draining" during graceful shutdown) — the
// client may retry later. An "error" status means the frame itself was
// unusable; when the id could not be recovered from the broken frame it is
// the empty string.
//
// The payload members ("response"/"stats") are spliced into the envelope
// as raw pre-serialized JSON and can be extracted back *byte-exactly* with
// extract_raw_member — so a response that crossed the wire compares
// byte-identical against serve::to_json of an in-process answer.
#pragma once

#include <string>

#include "serve/service.hpp"

namespace metacore::net {

/// Upper bound on request-id length; longer ids are a malformed request.
inline constexpr std::size_t kMaxRequestIdBytes = 256;

enum class RequestKind : int { Query = 0, Stats = 1 };

struct Request {
  std::string id;
  RequestKind kind = RequestKind::Query;
  serve::DesignQuery query;  ///< meaningful only when kind == Query
};

/// Canonical encoding (stable field order, round-trip doubles).
std::string to_json(const Request& request);

/// Parses and validates one request frame. Throws std::runtime_error with
/// a descriptive message on malformed JSON, a missing/over-long/empty id,
/// an unknown kind, or a missing/invalid query document.
Request parse_request(const std::string& json);

/// Best-effort id recovery from a frame that failed parse_request, so the
/// error response can still be correlated; "" when unrecoverable.
std::string best_effort_request_id(const std::string& json);

/// Response-envelope builders (see the grammar above).
std::string make_design_response(const std::string& id,
                                 const std::string& response_json);
std::string make_stats_response(const std::string& id,
                                const std::string& stats_json);
std::string make_rejected_response(const std::string& id,
                                   const std::string& reason,
                                   std::size_t queue_depth);
std::string make_error_response(const std::string& id,
                                const std::string& message);

/// One parsed server → client envelope.
struct WireResponse {
  std::string id;
  std::string status;  ///< "ok" | "rejected" | "error"
  std::string reason;  ///< rejection reason or error message; "" when ok
  std::size_t queue_depth = 0;  ///< populated on "rejected"
  /// Raw JSON text of the "response" member, byte-exact as serialized by
  /// the server; "" when the envelope carried none.
  std::string response_json;
  /// Raw JSON text of the "stats" member; "" when absent.
  std::string stats_json;

  bool ok() const noexcept { return status == "ok"; }
  bool rejected() const noexcept { return status == "rejected"; }
};

WireResponse parse_wire_response(const std::string& json);

/// Returns the raw text of top-level member `key` in JSON object `json`
/// (exactly the bytes of its value, braces to braces), or "" when absent.
/// Tracks strings/escapes, so brace characters inside string values do not
/// confuse it. Throws std::runtime_error when `json` is not an object.
std::string extract_raw_member(const std::string& json,
                               const std::string& key);

}  // namespace metacore::net
