// Wire-layer unit tests: frame round-trip and partial-read reassembly,
// oversized-line discard with the stream staying in sync (limit boundaries
// included), a flip-every-byte corruption sweep that must never cost the
// next frame, raw-member extraction, and request/response envelope
// round-trips: every query kind, every truncation, id limits and escapes,
// and a real search answer carried byte-exactly.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "serve/service.hpp"

namespace metacore::net {
namespace {

std::vector<Frame> drain(FrameDecoder& decoder) {
  std::vector<Frame> frames;
  while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  return frames;
}

std::string framed(std::string_view payload) {
  std::string out;
  append_frame(out, payload);
  return out;
}

/// Cheap Viterbi query (loose BER target, tiny budget).
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

/// One query per shape the wire carries: plain Viterbi, every optional
/// field set, the IIR scope, and an archive probe.
std::vector<serve::DesignQuery> every_query_kind() {
  std::vector<serve::DesignQuery> queries;
  queries.push_back(tiny_query());

  serve::DesignQuery rich = tiny_query(3.5);
  rich.ber_lanes = 4;
  rich.minimize = "energy_nj";
  search::Constraint upper;
  upper.kind = search::Constraint::Kind::UpperBound;
  upper.metric = "area_mm2";
  upper.bound = 12.5;
  search::Constraint lower;
  lower.kind = search::Constraint::Kind::LowerBound;
  lower.metric = "throughput_mbps";
  lower.bound = 0.25;
  rich.constraints = {upper, lower};
  queries.push_back(rich);

  serve::DesignQuery iir;
  iir.kind = serve::QueryKind::Iir;
  iir.sample_period_us = 2.0;
  iir.budget.max_evaluations = 32;
  queries.push_back(iir);

  serve::DesignQuery archive = tiny_query();
  archive.archive_only = true;
  queries.push_back(archive);
  return queries;
}

TEST(Frame, AppendRoundTrips) {
  std::string wire;
  append_frame(wire, "{\"a\":1}");
  append_frame(wire, "{\"b\":2}");
  EXPECT_EQ(wire, "{\"a\":1}\n{\"b\":2}\n");

  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  const auto frames = drain(decoder);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "{\"a\":1}");
  EXPECT_EQ(frames[1].payload, "{\"b\":2}");
  EXPECT_FALSE(frames[0].oversized);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, AppendRejectsRawNewline) {
  std::string wire;
  EXPECT_THROW(append_frame(wire, "split\nframe"), std::logic_error);
}

TEST(Frame, ByteAtATimeReassembly) {
  const std::string wire = "{\"id\":\"r1\"}\n{\"id\":\"r2\"}\n";
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const char c : wire) {
    decoder.feed(&c, 1);
    while (auto frame = decoder.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "{\"id\":\"r1\"}");
  EXPECT_EQ(frames[1].payload, "{\"id\":\"r2\"}");
}

TEST(Frame, SplitAcrossFeedsAtEveryBoundary) {
  const std::string wire = "{\"x\":[1,2,3]}\n";
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(wire.data(), cut);
    EXPECT_FALSE(decoder.next().has_value()) << "cut at " << cut;
    decoder.feed(wire.data() + cut, wire.size() - cut);
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value()) << "cut at " << cut;
    EXPECT_EQ(frame->payload, "{\"x\":[1,2,3]}");
  }
}

TEST(Frame, CrlfAndBlankLinesTolerated) {
  const std::string wire = "\r\n{\"a\":1}\r\n\n{\"b\":2}\n";
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  const auto frames = drain(decoder);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "{\"a\":1}");
  EXPECT_EQ(frames[1].payload, "{\"b\":2}");
}

TEST(Frame, OversizedTerminatedLineIsDroppedNotFatal) {
  FrameDecoder decoder(16);
  const std::string wire = std::string(40, 'x') + "\n{\"ok\":1}\n";
  decoder.feed(wire.data(), wire.size());
  const auto frames = drain(decoder);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].oversized);
  EXPECT_EQ(frames[0].dropped_bytes, 40u);
  EXPECT_FALSE(frames[1].oversized);
  EXPECT_EQ(frames[1].payload, "{\"ok\":1}");
}

TEST(Frame, OversizedUnterminatedLineDiscardsBounded) {
  FrameDecoder decoder(16);
  const std::string chunk(64, 'y');
  // Several feeds with no newline: memory stays bounded (buffer cleared),
  // no frame yet.
  for (int i = 0; i < 4; ++i) {
    decoder.feed(chunk.data(), chunk.size());
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_EQ(decoder.buffered(), 0u);
  }
  // The terminator finally arrives, followed by a good frame.
  const std::string tail = "tail\n{\"ok\":1}\n";
  decoder.feed(tail.data(), tail.size());
  const auto frames = drain(decoder);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].oversized);
  EXPECT_EQ(frames[0].dropped_bytes, 4u * 64u + 4u);
  EXPECT_EQ(frames[1].payload, "{\"ok\":1}");
}

TEST(Frame, PayloadBytesOtherThanNewlineRoundTrip) {
  // Only '\n' delimits; NUL, tabs, an interior '\r' and non-ASCII bytes
  // are payload and survive a byte-at-a-time feed untouched.
  const std::string odd("a\0b\tc\rd#|\xc3\xa9", 12);
  const std::string stream = framed("first") + framed(odd) + framed("x");
  FrameDecoder decoder;
  std::vector<std::string> payloads;
  for (const char c : stream) {
    decoder.feed(&c, 1);
    while (auto frame = decoder.next()) {
      ASSERT_FALSE(frame->oversized);
      payloads.push_back(frame->payload);
    }
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "first");
  EXPECT_EQ(payloads[1], odd);
  EXPECT_EQ(payloads[2], "x");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, KeepAliveOnlyStreamYieldsNoFramesAndBuffersNothing) {
  const std::string noise = "\n\r\n\n\n\r\n";
  FrameDecoder decoder;
  for (int i = 0; i < 3; ++i) {
    decoder.feed(noise.data(), noise.size());
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(Frame, LineAtTheLimitIsKeptOneByteMoreIsDropped) {
  FrameDecoder decoder(16);
  const std::string at_limit(16, 'a');
  const std::string over_limit(17, 'b');
  // A stripped trailing '\r' does not count against the limit.
  const std::string wire = at_limit + "\n" + at_limit + "\r\n" +
                           over_limit + "\n" + "{}\n";
  decoder.feed(wire.data(), wire.size());
  const auto frames = drain(decoder);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_FALSE(frames[0].oversized);
  EXPECT_EQ(frames[0].payload, at_limit);
  EXPECT_FALSE(frames[1].oversized);
  EXPECT_EQ(frames[1].payload, at_limit);
  EXPECT_TRUE(frames[2].oversized);
  EXPECT_EQ(frames[2].dropped_bytes, 17u);
  EXPECT_EQ(frames[2].payload, "");
  EXPECT_EQ(frames[3].payload, "{}");
}

TEST(Frame, UnterminatedLineIsBufferedUpToTheLimitThenDiscarded) {
  FrameDecoder decoder(16);
  const std::string at_limit(16, 'a');
  decoder.feed(at_limit.data(), at_limit.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 16u);  // still a candidate frame
  decoder.feed("a", 1);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);   // now discarding
  decoder.feed("\n", 1);
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->oversized);
  EXPECT_EQ(frame->dropped_bytes, 17u);
}

TEST(Frame, ZeroLimitMeansTheDefaultLimit) {
  EXPECT_EQ(FrameDecoder(0).max_frame_bytes(), kDefaultMaxFrameBytes);
  EXPECT_EQ(FrameDecoder().max_frame_bytes(), kDefaultMaxFrameBytes);
  EXPECT_EQ(FrameDecoder(64).max_frame_bytes(), 64u);
}

TEST(Frame, EveryByteFlipOfAFrameYieldsOneFrameAndResyncs) {
  // Flip each payload byte of frame A in turn. A request's bytes never
  // include 0x0b, so no flip forges a newline: every corrupted A still
  // decodes as exactly one (damaged) frame and B after it is intact.
  Request request;
  request.id = "fz";
  request.kind = RequestKind::Query;
  request.query = tiny_query();
  const std::string payload_a = to_json(request);
  const std::string payload_b = "{\"id\":\"next\",\"kind\":\"stats\"}";
  ASSERT_EQ(payload_a.find('\x0b'), std::string::npos);

  for (std::size_t flip = 0; flip < payload_a.size(); ++flip) {
    std::string corrupted = payload_a;
    corrupted[flip] = static_cast<char>(corrupted[flip] ^ 0x01);
    FrameDecoder decoder(payload_a.size() + 1);
    const std::string wire = framed(corrupted) + framed(payload_b);
    decoder.feed(wire.data(), wire.size());
    const auto frames = drain(decoder);
    ASSERT_EQ(frames.size(), 2u) << "flip at byte " << flip;
    EXPECT_FALSE(frames[0].oversized) << "flip at byte " << flip;
    EXPECT_EQ(frames[0].payload, corrupted) << "flip at byte " << flip;
    EXPECT_EQ(frames[1].payload, payload_b) << "flip at byte " << flip;
  }

  // Flipping the terminator itself ('\n' -> 0x0b) fuses A and B into one
  // over-long line; with the limit at A's size it is dropped whole.
  std::string fused = framed(payload_a);
  fused.back() = static_cast<char>(fused.back() ^ 0x01);
  fused += framed(payload_b);
  FrameDecoder decoder(payload_a.size() + 1);
  decoder.feed(fused.data(), fused.size());
  const auto frames = drain(decoder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].oversized);
  EXPECT_EQ(frames[0].dropped_bytes, payload_a.size() + 1 + payload_b.size());
}

TEST(RawMember, ExtractsByteExactly) {
  const std::string json =
      "{\"id\":\"a{b}\",\"status\":\"ok\",\"response\":{\"x\":[1,{\"y\":\"}\"}],"
      "\"s\":\"\\\"quoted\\\"\"},\"tail\":3}";
  EXPECT_EQ(extract_raw_member(json, "id"), "\"a{b}\"");
  EXPECT_EQ(extract_raw_member(json, "response"),
            "{\"x\":[1,{\"y\":\"}\"}],\"s\":\"\\\"quoted\\\"\"}");
  EXPECT_EQ(extract_raw_member(json, "tail"), "3");
  EXPECT_EQ(extract_raw_member(json, "absent"), "");
  EXPECT_THROW(extract_raw_member("[1,2]", "x"), std::runtime_error);
}

TEST(RawMember, WhitespaceAroundMembersIsSkipped) {
  const std::string json = "{ \"a\" : [1, 2] ,\t\"b\" :\"x\" , \"c\":{ } }";
  EXPECT_EQ(extract_raw_member(json, "a"), "[1, 2]");
  EXPECT_EQ(extract_raw_member(json, "b"), "\"x\"");
  EXPECT_EQ(extract_raw_member(json, "c"), "{ }");
  EXPECT_EQ(extract_raw_member("  {}  ", "a"), "");
}

TEST(RawMember, TruncatedDocumentsThrowInsteadOfOverReading) {
  EXPECT_THROW(extract_raw_member("{\"a\":\"unterminated", "a"),
               std::runtime_error);
  EXPECT_THROW(extract_raw_member("{\"a\":{\"b\":1}", "b"),
               std::runtime_error);
  EXPECT_THROW(extract_raw_member("{\"a\" 1}", "a"), std::runtime_error);
  EXPECT_THROW(extract_raw_member("{\"a\":1 \"b\":2}", "b"),
               std::runtime_error);
  EXPECT_THROW(extract_raw_member("{\"a\":", "a"), std::runtime_error);
  EXPECT_THROW(extract_raw_member("", "a"), std::runtime_error);
}

TEST(RequestJson, QueryRoundTripsCanonically) {
  Request request;
  request.id = "req-42";
  request.kind = RequestKind::Query;
  request.query.kind = serve::QueryKind::Viterbi;
  request.query.throughput_mbps = 2.5;
  request.query.budget.max_evaluations = 48;
  const std::string json = to_json(request);
  const Request parsed = parse_request(json);
  EXPECT_EQ(parsed.id, "req-42");
  EXPECT_EQ(parsed.kind, RequestKind::Query);
  EXPECT_EQ(parsed.query.throughput_mbps, 2.5);
  EXPECT_EQ(parsed.query.budget.max_evaluations, 48u);
  EXPECT_EQ(to_json(parsed), json);
}

TEST(RequestJson, StatsRoundTrips) {
  Request request;
  request.id = "s1";
  request.kind = RequestKind::Stats;
  const Request parsed = parse_request(to_json(request));
  EXPECT_EQ(parsed.kind, RequestKind::Stats);
  EXPECT_EQ(to_json(parsed), to_json(request));
}

TEST(RequestJson, RejectsMalformedEnvelopes) {
  EXPECT_THROW(parse_request("not json at all"), std::runtime_error);
  EXPECT_THROW(parse_request("[1,2,3]"), std::runtime_error);
  // Missing / empty / oversized id.
  EXPECT_THROW(parse_request("{\"kind\":\"stats\"}"), std::runtime_error);
  EXPECT_THROW(parse_request("{\"id\":\"\",\"kind\":\"stats\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_request("{\"id\":\"" + std::string(300, 'a') +
                             "\",\"kind\":\"stats\"}"),
               std::runtime_error);
  // Unknown kind, missing query member, malformed inner query.
  EXPECT_THROW(parse_request("{\"id\":\"x\",\"kind\":\"bogus\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_request("{\"id\":\"x\",\"kind\":\"query\"}"),
               std::runtime_error);
  EXPECT_THROW(
      parse_request(
          "{\"id\":\"x\",\"kind\":\"query\",\"query\":{\"kind\":\"nope\"}}"),
      std::runtime_error);
}

TEST(RequestJson, EveryQueryKindRoundTripsCanonically) {
  for (const serve::DesignQuery& query : every_query_kind()) {
    Request request;
    request.id = "k";
    request.kind = RequestKind::Query;
    request.query = query;
    const std::string json = to_json(request);
    const Request parsed = parse_request(json);
    EXPECT_EQ(parsed.kind, RequestKind::Query);
    // The query member is the canonical query encoding, spliced verbatim.
    EXPECT_EQ(extract_raw_member(json, "query"), serve::to_json(query));
    EXPECT_EQ(serve::to_json(parsed.query), serve::to_json(query));
    EXPECT_EQ(to_json(parsed), json);
  }
}

TEST(RequestJson, EveryTruncationOfARequestIsRejected) {
  Request request;
  request.id = "cut";
  request.kind = RequestKind::Query;
  request.query = every_query_kind()[1];
  const std::string json = to_json(request);
  for (std::size_t keep = 0; keep < json.size(); ++keep) {
    EXPECT_THROW(parse_request(json.substr(0, keep)), std::runtime_error)
        << "truncated to " << keep << " bytes";
  }
  EXPECT_NO_THROW(parse_request(json));
}

TEST(RequestJson, WrongTypedMembersAreRejected) {
  EXPECT_THROW(parse_request("{\"id\":7,\"kind\":\"stats\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_request("{\"id\":\"x\",\"kind\":1}"),
               std::runtime_error);
  EXPECT_THROW(parse_request("{\"id\":\"x\",\"kind\":\"query\",\"query\":[]}"),
               std::runtime_error);
  EXPECT_THROW(
      parse_request("{\"id\":\"x\",\"kind\":\"query\",\"query\":\"{}\"}"),
      std::runtime_error);
  EXPECT_THROW(parse_request("{\"id\":null,\"kind\":\"stats\"}"),
               std::runtime_error);
}

TEST(RequestJson, IdLengthLimitIsInclusive) {
  const std::string longest(kMaxRequestIdBytes, 'i');
  const std::string too_long(kMaxRequestIdBytes + 1, 'i');
  const std::string ok = "{\"id\":\"" + longest + "\",\"kind\":\"stats\"}";
  const std::string bad = "{\"id\":\"" + too_long + "\",\"kind\":\"stats\"}";
  EXPECT_EQ(parse_request(ok).id, longest);
  EXPECT_EQ(best_effort_request_id(ok), longest);
  EXPECT_THROW(parse_request(bad), std::runtime_error);
  // An over-long id cannot be echoed back either.
  EXPECT_EQ(best_effort_request_id(bad), "");
}

TEST(RequestJson, IdsWithEscapesRoundTripThroughRequestAndResponse) {
  const std::string id = "a\"b\\c\nd\te\x01f\xc3\xa9";
  Request request;
  request.id = id;
  request.kind = RequestKind::Stats;
  const std::string json = to_json(request);
  // Escaped on the wire: the frame stays one line.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(parse_request(json).id, id);
  EXPECT_EQ(best_effort_request_id(json), id);

  const std::string envelope = make_stats_response(id, "{}");
  EXPECT_EQ(envelope.find('\n'), std::string::npos);
  EXPECT_EQ(parse_wire_response(envelope).id, id);
}

TEST(RequestJson, HelloFromAnOldClientIsAnUnknownKind) {
  // The binary-mode handshake of older clients is no longer a request
  // kind: it fails like any unknown kind, with its id still recoverable.
  const std::string hello = "{\"id\":\"h\",\"kind\":\"hello\",\"wire\":\"binary\"}";
  try {
    parse_request(hello);
    FAIL() << "hello parsed as a request";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(best_effort_request_id(hello), "h");
}

TEST(RequestJson, BestEffortIdRecovery) {
  EXPECT_EQ(best_effort_request_id("{\"id\":\"x\",\"kind\":\"bogus\"}"), "x");
  EXPECT_EQ(best_effort_request_id("total garbage"), "");
  EXPECT_EQ(best_effort_request_id("{\"id\":42}"), "");
}

TEST(ResponseJson, EnvelopesRoundTrip) {
  const std::string payload = "{\"feasible\":true,\"evaluations\":12}";
  const WireResponse ok = parse_wire_response(make_design_response("r1",
                                                                   payload));
  EXPECT_EQ(ok.id, "r1");
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.response_json, payload);  // byte-exact
  EXPECT_EQ(ok.stats_json, "");

  const WireResponse stats =
      parse_wire_response(make_stats_response("r2", "{\"queries\":3}"));
  EXPECT_TRUE(stats.ok());
  EXPECT_EQ(stats.stats_json, "{\"queries\":3}");

  const WireResponse rejected =
      parse_wire_response(make_rejected_response("r3", "overloaded", 7));
  EXPECT_TRUE(rejected.rejected());
  EXPECT_EQ(rejected.reason, "overloaded");
  EXPECT_EQ(rejected.queue_depth, 7u);

  const WireResponse error =
      parse_wire_response(make_error_response("", "request: bad frame"));
  EXPECT_EQ(error.status, "error");
  EXPECT_EQ(error.id, "");
  EXPECT_EQ(error.reason, "request: bad frame");

  EXPECT_THROW(parse_wire_response("{\"id\":\"x\",\"status\":\"weird\"}"),
               std::runtime_error);
}

TEST(ResponseJson, RealSearchAnswerSurvivesTheEnvelopeByteExactly) {
  // A genuine search response (front points, metrics, summary text) and a
  // genuine archive answer both come back out of a decoded frame as the
  // exact canonical bytes that went in.
  serve::DesignService service;
  const serve::DesignQuery query = tiny_query();
  const serve::DesignResponse searched = service.submit(query);
  serve::DesignQuery probe = query;
  probe.archive_only = true;
  const serve::DesignResponse archived = service.submit(probe);
  ASSERT_TRUE(archived.from_archive);

  for (const serve::DesignResponse* response : {&searched, &archived}) {
    const std::string body = serve::to_json(*response);
    FrameDecoder decoder;
    const std::string wire = framed(make_design_response("a", body));
    decoder.feed(wire.data(), wire.size());
    const auto frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    const WireResponse parsed = parse_wire_response(frame->payload);
    EXPECT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.id, "a");
    EXPECT_EQ(parsed.response_json, body);
  }
}

TEST(ResponseJson, BodyIsSplicedVerbatimBeforeTheClosingBrace) {
  // The server splices cached response bytes straight into the envelope;
  // that only works if the body is the exact bytes before the final '}'.
  serve::DesignService service;
  const std::string body = serve::to_json(service.submit(tiny_query()));
  const std::string envelope = make_design_response("id", body);
  ASSERT_GT(envelope.size(), body.size());
  EXPECT_EQ(envelope.substr(envelope.size() - body.size() - 1), body + "}");
  const std::string stats = make_stats_response("id", "{\"q\":1}");
  EXPECT_EQ(stats.substr(stats.size() - 8), "{\"q\":1}}");
}

TEST(ResponseJson, MessagesWithControlCharactersStayOneFrame) {
  const std::string message = "line one\nline two\t\"quoted\" \\ \x02";
  const std::string error = make_error_response("e", message);
  const std::string rejected = make_rejected_response("r", message, 3);
  for (const std::string& envelope : {error, rejected}) {
    EXPECT_EQ(envelope.find('\n'), std::string::npos);
    std::string wire;
    EXPECT_NO_THROW(append_frame(wire, envelope));
    EXPECT_EQ(parse_wire_response(envelope).reason, message);
  }
  EXPECT_EQ(parse_wire_response(rejected).queue_depth, 3u);
}

TEST(ResponseJson, RejectsEnvelopesMissingIdOrStatus) {
  EXPECT_THROW(parse_wire_response("{\"status\":\"ok\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_wire_response("{\"id\":\"x\"}"), std::runtime_error);
  EXPECT_THROW(parse_wire_response("{\"id\":1,\"status\":\"ok\"}"),
               std::runtime_error);
  EXPECT_THROW(parse_wire_response("[\"x\",\"ok\"]"), std::runtime_error);
  EXPECT_THROW(parse_wire_response("not an envelope"), std::runtime_error);
  EXPECT_THROW(parse_wire_response(""), std::runtime_error);
}

}  // namespace
}  // namespace metacore::net
