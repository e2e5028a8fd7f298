#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "query/proto.h"

namespace netqos::query {
namespace {

/// Encodes `in`, then decodes the frame both ways: in place into a
/// fresh Message, and by value. Both must re-encode to the same frame.
/// The encode's size pass must be exact: a fresh encode reserves the
/// frame once and never grows, so its capacity is its size.
Message round_trip(const Message& in) {
  const Bytes wire = encode_message(in);
  EXPECT_EQ(wire.capacity(), wire.size());
  Message in_place;
  decode_message(wire, in_place);
  EXPECT_EQ(encode_message(in_place), wire);
  EXPECT_EQ(encode_message(decode_message(wire)), wire);
  return in_place;
}

TEST(QueryProto, WindowRequestRoundTrip) {
  Message m;
  m.header.type = MessageType::kWindowRequest;
  m.header.request_id = 42;
  m.header.sent_at = 17 * kSecond;
  m.window_request.group = GroupBy::kHost;
  m.window_request.selector = "S1";
  m.window_request.begin = -30 * kSecond;
  m.window_request.end = 0;

  const Message out = round_trip(m);
  EXPECT_EQ(out.header.type, MessageType::kWindowRequest);
  EXPECT_EQ(out.header.request_id, 42u);
  EXPECT_EQ(out.header.sent_at, 17 * kSecond);
  EXPECT_EQ(out.window_request.group, GroupBy::kHost);
  EXPECT_EQ(out.window_request.selector, "S1");
  EXPECT_EQ(out.window_request.begin, -30 * kSecond);
  EXPECT_EQ(out.window_request.end, 0);
}

TEST(QueryProto, WindowResponseRoundTrip) {
  Message m;
  m.header.type = MessageType::kWindowResponse;
  m.header.request_id = 7;
  m.window_response.server_now = 60 * kSecond;
  m.window_response.begin = 30 * kSecond;
  m.window_response.end = 60 * kSecond;
  WindowRow row;
  row.key = "path:N1|S1:avail";
  row.samples = 15;
  row.min = 1.5;
  row.mean = 2.25;
  row.max = 3.5;
  row.p95 = 3.25;
  row.resolution = 10 * kSecond;
  row.complete = true;
  m.window_response.rows.push_back(row);

  const Message out = round_trip(m);
  ASSERT_EQ(out.window_response.rows.size(), 1u);
  const WindowRow& r = out.window_response.rows[0];
  EXPECT_EQ(r.key, "path:N1|S1:avail");
  EXPECT_EQ(r.samples, 15u);
  EXPECT_DOUBLE_EQ(r.min, 1.5);
  EXPECT_DOUBLE_EQ(r.mean, 2.25);
  EXPECT_DOUBLE_EQ(r.max, 3.5);
  EXPECT_DOUBLE_EQ(r.p95, 3.25);
  EXPECT_EQ(r.resolution, 10 * kSecond);
  EXPECT_TRUE(r.complete);
}

TEST(QueryProto, HealthResponseRoundTrip) {
  Message m;
  m.header.type = MessageType::kHealthResponse;
  m.health_response.server_now = 5 * kSecond;
  AgentHealthRow agent;
  agent.node = "sw0";
  agent.health = 2;
  agent.consecutive_failures = 3;
  agent.polls = 100;
  agent.failures = 9;
  agent.quarantines = 1;
  agent.next_due = 12 * kSecond;
  m.health_response.agents.push_back(agent);
  PathHealthRow path;
  path.from = "S1";
  path.to = "N1";
  path.used = 200'000.0;
  path.available = 1'050'000.0;
  path.freshness = 1;
  path.max_sample_age = 2 * kSecond;
  path.complete = true;
  path.violated = true;
  m.health_response.paths.push_back(path);

  const Message out = round_trip(m);
  ASSERT_EQ(out.health_response.agents.size(), 1u);
  ASSERT_EQ(out.health_response.paths.size(), 1u);
  EXPECT_EQ(out.health_response.agents[0].node, "sw0");
  EXPECT_EQ(out.health_response.agents[0].health, 2);
  EXPECT_EQ(out.health_response.agents[0].quarantines, 1u);
  EXPECT_EQ(out.health_response.paths[0].from, "S1");
  EXPECT_DOUBLE_EQ(out.health_response.paths[0].available, 1'050'000.0);
  EXPECT_TRUE(out.health_response.paths[0].violated);
  EXPECT_FALSE(out.health_response.paths[0].warning);
}

TEST(QueryProto, HealthProbeStatusRoundTrip) {
  Message m;
  m.header.type = MessageType::kHealthResponse;
  m.health_response.server_now = 45 * kSecond;
  ProbeStatusRow probe;
  probe.estimator = "pair";
  probe.from = "S1";
  probe.to = "N1";
  probe.convergence = 2;
  probe.running = true;
  probe.has_estimate = true;
  probe.available = 1'210'000.0;
  probe.estimates = 37;
  probe.wire_bytes = 123'456;
  m.health_response.probes.push_back(probe);
  ProbeStatusRow stopped;
  stopped.estimator = "train";
  stopped.from = "S1";
  stopped.to = "S2";
  m.health_response.probes.push_back(stopped);

  const Message out = round_trip(m);
  ASSERT_EQ(out.health_response.probes.size(), 2u);
  const ProbeStatusRow& r = out.health_response.probes[0];
  EXPECT_EQ(r.estimator, "pair");
  EXPECT_EQ(r.from, "S1");
  EXPECT_EQ(r.to, "N1");
  EXPECT_EQ(r.convergence, 2);
  EXPECT_TRUE(r.running);
  EXPECT_TRUE(r.has_estimate);
  EXPECT_DOUBLE_EQ(r.available, 1'210'000.0);
  EXPECT_EQ(r.estimates, 37u);
  EXPECT_EQ(r.wire_bytes, 123'456u);
  const ProbeStatusRow& s = out.health_response.probes[1];
  EXPECT_EQ(s.estimator, "train");
  EXPECT_FALSE(s.running);
  EXPECT_FALSE(s.has_estimate);

  // A probe-less health response (no provider wired server-side) still
  // round-trips as before.
  Message bare;
  bare.header.type = MessageType::kHealthResponse;
  EXPECT_TRUE(round_trip(bare).health_response.probes.empty());
}

TEST(QueryProto, ModulesResponseRoundTrip) {
  Message m;
  m.header.type = MessageType::kModulesResponse;
  m.header.request_id = 3;
  m.modules_response.server_now = 90 * kSecond;
  ModuleStatusRow row;
  row.name = "top-talkers";
  row.samples = 12'345;
  row.errors = 2;
  row.footprint_bytes = 4096;
  row.notes.emplace_back("interfaces", "18");
  row.notes.emplace_back("top1", "N1/le0 12.6 MB");
  m.modules_response.modules.push_back(row);
  ModuleStatusRow bare;
  bare.name = "ewma-anomaly";
  m.modules_response.modules.push_back(bare);

  const Message out = round_trip(m);
  EXPECT_EQ(out.header.type, MessageType::kModulesResponse);
  EXPECT_EQ(out.modules_response.server_now, 90 * kSecond);
  ASSERT_EQ(out.modules_response.modules.size(), 2u);
  const ModuleStatusRow& r = out.modules_response.modules[0];
  EXPECT_EQ(r.name, "top-talkers");
  EXPECT_EQ(r.samples, 12'345u);
  EXPECT_EQ(r.errors, 2u);
  EXPECT_EQ(r.footprint_bytes, 4096u);
  ASSERT_EQ(r.notes.size(), 2u);
  EXPECT_EQ(r.notes[0].first, "interfaces");
  EXPECT_EQ(r.notes[1].second, "N1/le0 12.6 MB");
  EXPECT_EQ(out.modules_response.modules[1].name, "ewma-anomaly");
  EXPECT_TRUE(out.modules_response.modules[1].notes.empty());
}

TEST(QueryProto, EventAndHeaderOnlyRoundTrip) {
  Message event;
  event.header.type = MessageType::kEvent;
  event.event.kind = Event::Kind::kEarlyWarning;
  event.event.time = 33 * kSecond;
  event.event.subject_a = "S1";
  event.event.subject_b = "N1";
  event.event.available = 600'000.0;
  event.event.required = 500'000.0;
  const Message out = round_trip(event);
  EXPECT_EQ(out.event.kind, Event::Kind::kEarlyWarning);
  EXPECT_EQ(out.event.subject_b, "N1");
  EXPECT_DOUBLE_EQ(out.event.required, 500'000.0);

  for (MessageType type :
       {MessageType::kHealthRequest, MessageType::kSubscribe,
        MessageType::kSubscribeAck, MessageType::kUnsubscribe,
        MessageType::kModulesRequest}) {
    Message m;
    m.header.type = type;
    m.header.request_id = 9;
    EXPECT_EQ(round_trip(m).header.type, type) << message_type_name(type);
  }

  Message error;
  error.header.type = MessageType::kError;
  error.error = "subscriber limit reached";
  EXPECT_EQ(round_trip(error).error, "subscriber limit reached");
}

TEST(QueryProto, EncodeIntoReusedBufferMatchesFreshEncode) {
  Message m;
  m.header.type = MessageType::kWindowResponse;
  m.header.request_id = 9;
  m.window_response.server_now = 5 * kSecond;
  for (int i = 0; i < 3; ++i) {
    WindowRow row;
    row.key = "path:S" + std::to_string(i) + "|N1:avail";
    row.samples = static_cast<std::uint32_t>(10 + i);
    row.p95 = 1.5 * i;
    m.window_response.rows.push_back(row);
  }
  const Bytes fresh = encode_message(m);
  // The length prefix counts every byte after itself.
  ASSERT_GE(fresh.size(), 4u);
  EXPECT_EQ((std::uint32_t{fresh[0]} << 24) | (std::uint32_t{fresh[1]} << 16) |
                (std::uint32_t{fresh[2]} << 8) | fresh[3],
            fresh.size() - 4);

  Bytes stale(1024, 0x5a);
  const std::uint8_t* storage = stale.data();
  const Bytes reused = encode_message(m, std::move(stale));
  EXPECT_EQ(reused, fresh);
  EXPECT_EQ(reused.data(), storage);  // written into the given capacity

  // A reused buffer too small for the frame grows to fit it.
  Bytes small;
  small.reserve(8);
  EXPECT_EQ(encode_message(m, std::move(small)), fresh);

  // The length prefix written first is the one a back-patch would give:
  // it covers exactly the bytes after it, also after a reused buffer.
  const Bytes again = encode_message(m, encode_message(m));
  EXPECT_EQ(again, fresh);

  // A header-only frame leaves nothing of a larger earlier frame.
  Message bare;
  bare.header.type = MessageType::kHealthRequest;
  const Bytes header_only = encode_message(bare, Bytes(fresh));
  EXPECT_EQ(header_only, encode_message(bare));
  EXPECT_EQ(header_only.size(), 4u + 16u);
}

TEST(QueryProto, RejectsMalformedFrames) {
  Message m;
  m.header.type = MessageType::kHealthRequest;
  const Bytes good = encode_message(m);

  // Truncated: every prefix of a valid frame must throw, never crash.
  for (std::size_t n = 0; n < good.size(); ++n) {
    const std::span<const std::uint8_t> prefix(good.data(), n);
    EXPECT_THROW(decode_message(prefix), std::exception) << "prefix " << n;
  }

  // Length field disagreeing with the payload.
  Bytes bad_length = good;
  bad_length[3] += 1;
  EXPECT_THROW(decode_message(bad_length), ProtocolError);

  // Bad magic.
  Bytes bad_magic = good;
  bad_magic[4] = 0x00;
  EXPECT_THROW(decode_message(bad_magic), ProtocolError);

  // Unsupported version.
  Bytes bad_version = good;
  bad_version[6] = kProtocolVersion + 1;
  EXPECT_THROW(decode_message(bad_version), ProtocolError);

  // Unknown message type.
  Bytes bad_type = good;
  bad_type[7] = 200;
  EXPECT_THROW(decode_message(bad_type), ProtocolError);

  // Trailing garbage after a complete body (length covers it, so the
  // trailing check fires).
  Bytes trailing = good;
  trailing.push_back(0xab);
  trailing[3] += 1;
  EXPECT_THROW(decode_message(trailing), ProtocolError);

  // Out-of-range enum in a window request body.
  Message w;
  w.header.type = MessageType::kWindowRequest;
  Bytes bad_group = encode_message(w);
  bad_group[20] = 99;  // group byte: 4 length prefix + 16 header
  EXPECT_THROW(decode_message(bad_group), ProtocolError);
}

TEST(QueryProto, RejectsOversizedString) {
  Message m;
  m.header.type = MessageType::kError;
  m.error.assign(0x10000, 'x');
  EXPECT_THROW(encode_message(m), ProtocolError);
}

}  // namespace
}  // namespace netqos::query
