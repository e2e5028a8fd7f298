#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "experiments/lirtss.h"
#include "monitor/modules/registry.h"
#include "monitor/qos.h"
#include "monitor/stats_db.h"
#include "query/client.h"
#include "query/engine.h"
#include "query/server.h"

namespace netqos::query {
namespace {

// End-to-end over the simulated network: server on L, clients elsewhere,
// every frame crossing sw0 like real traffic.
class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() {
    bed_.watch("S1", "N1");
    engine_ = std::make_unique<QueryEngine>(bed_.monitor());
    server_ = std::make_unique<QueryServer>(bed_.simulator(),
                                            bed_.host("L"), *engine_);
  }

  exp::LirtssTestbed bed_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(QueryServiceTest, WindowQueryRoundTripsOverTheNetwork) {
  bed_.add_load("L", "N1",
                load::RateProfile::pulse(seconds(5), seconds(25),
                                         kilobytes_per_second(200)));
  QueryClient client(bed_.simulator(), bed_.host("S3"),
                     bed_.host("L").ip());

  std::vector<QueryResult> results;
  bed_.simulator().schedule_at(seconds(30), [&] {
    WindowRequest request;
    request.group = GroupBy::kPath;
    request.begin = -20 * kSecond;
    client.window(request, [&](QueryResult r) { results.push_back(r); });
  });
  bed_.run_until(seconds(32));

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  // The round trip crossed two links: RTT is positive simulated time.
  EXPECT_GT(results[0].rtt, 0);
  const WindowResponse& response = results[0].message.window_response;
  ASSERT_EQ(response.rows.size(), 2u);  // used + avail for the one path
  EXPECT_EQ(response.end, response.server_now);
  EXPECT_EQ(response.begin, response.server_now - 20 * kSecond);
  for (const WindowRow& row : response.rows) {
    EXPECT_GT(row.samples, 0u) << row.key;
  }

  const QueryServerStats stats = server_->stats();
  EXPECT_EQ(stats.window_requests, 1u);
  EXPECT_EQ(stats.bad_requests, 0u);
  EXPECT_GT(stats.bytes_received, 0u);
  EXPECT_GT(stats.bytes_sent, stats.bytes_received);  // rows outweigh asks
  EXPECT_EQ(client.stats().responses, 1u);
  EXPECT_EQ(client.stats().timeouts, 0u);
}

TEST_F(QueryServiceTest, WindowOverANearConstantSeriesIsAnswered) {
  // An interface whose two rates are one ulp apart: 2^53 and 2^53 + 2
  // octets per second, from Counter64 deltas over 1 s. Binning such a
  // window once threw from the store, out of the server's packet handler
  // and out of the simulator.
  mon::StatsDb db;
  const mon::MeasurePoint interface{.node = "S2", .interface = "eth0"};
  mon::CounterSample sample;
  sample.high_capacity = true;
  db.update(interface, seconds(1), sample);
  sample.sys_uptime_ticks = 100;
  sample.in_octets = std::uint64_t{1} << 53;
  db.update(interface, seconds(2), sample);
  sample.sys_uptime_ticks = 200;
  sample.in_octets = (std::uint64_t{1} << 54) + 2;
  db.update(interface, seconds(3), sample);

  // A monitor that reads the db but never polls, served on L in place of
  // the fixture's server.
  mon::NetworkMonitor monitor(bed_.simulator(), bed_.topology(),
                              bed_.host("L"), db, mon::MonitorConfig{});
  QueryEngine engine(monitor);
  server_.reset();
  QueryServer server(bed_.simulator(), bed_.host("L"), engine);
  QueryClient client(bed_.simulator(), bed_.host("S3"),
                     bed_.host("L").ip());

  std::vector<QueryResult> results;
  bed_.simulator().schedule_at(seconds(4), [&] {
    WindowRequest request;
    request.group = GroupBy::kInterface;
    request.begin = 0;
    client.window(request, [&](QueryResult r) { results.push_back(r); });
  });
  ASSERT_NO_THROW(bed_.run_until(seconds(6)));

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_EQ(results[0].message.header.type, MessageType::kWindowResponse);
  const WindowResponse& response = results[0].message.window_response;
  ASSERT_EQ(response.rows.size(), 1u);
  const WindowRow& row = response.rows[0];
  EXPECT_EQ(row.key, "if:S2/eth0");
  EXPECT_EQ(row.samples, 2u);
  EXPECT_EQ(row.min, 9007199254740992.0);
  EXPECT_EQ(row.max, 9007199254740994.0);
  EXPECT_GE(row.p95, row.min);
  EXPECT_LE(row.p95, row.max);
  EXPECT_EQ(server.stats().bad_requests, 0u);
}

TEST_F(QueryServiceTest, HealthQueryReportsAgentsAndServerCounts) {
  QueryClient client(bed_.simulator(), bed_.host("S2"),
                     bed_.host("L").ip());
  std::vector<QueryResult> results;
  bed_.simulator().schedule_at(seconds(10), [&] {
    client.health([&](QueryResult r) { results.push_back(r); });
  });
  bed_.run_until(seconds(12));

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  const HealthResponse& health = results[0].message.health_response;
  EXPECT_EQ(health.agents.size(),
            bed_.monitor().scheduler().agents().size());
  ASSERT_EQ(health.paths.size(), 1u);
  EXPECT_EQ(server_->stats().health_requests, 1u);
}

TEST_F(QueryServiceTest, ModulesQueryReportsRegisteredModuleTelemetry) {
  // Register every registry module, drive traffic so they see samples,
  // then fetch their telemetry over the wire.
  for (const mon::ModuleSpec& spec : mon::available_modules()) {
    bed_.monitor().add_module(mon::make_module(spec.name));
  }
  bed_.add_load("L", "N1",
                load::RateProfile::pulse(seconds(2), seconds(18),
                                         kilobytes_per_second(150)));
  QueryClient client(bed_.simulator(), bed_.host("S2"),
                     bed_.host("L").ip());
  std::vector<QueryResult> results;
  bed_.simulator().schedule_at(seconds(20), [&] {
    client.modules([&](QueryResult r) { results.push_back(r); });
  });
  bed_.run_until(seconds(22));

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  const ModulesResponse& modules = results[0].message.modules_response;
  // Rows cover the built-in modules plus every registry module we added.
  ASSERT_GE(modules.modules.size(), mon::available_modules().size());
  for (const mon::ModuleSpec& spec : mon::available_modules()) {
    const auto it = std::find_if(
        modules.modules.begin(), modules.modules.end(),
        [&](const ModuleStatusRow& row) { return row.name == spec.name; });
    ASSERT_NE(it, modules.modules.end()) << spec.name;
    // Registry modules carry state, so they report a live footprint and
    // self-describing notes alongside their delivery counters.
    EXPECT_GT(it->footprint_bytes, 0u) << spec.name;
    EXPECT_FALSE(it->notes.empty()) << spec.name;
  }
  for (const ModuleStatusRow& row : modules.modules) {
    EXPECT_GT(row.samples, 0u) << row.name;
    EXPECT_EQ(row.errors, 0u) << row.name;
  }
  EXPECT_EQ(server_->stats().modules_requests, 1u);
}

TEST_F(QueryServiceTest, SubscriberReceivesViolationAndRecoveryEvents) {
  mon::ViolationDetector detector(bed_.monitor());
  detector.add_requirement("S1", "N1", kilobytes_per_second(500));
  server_->attach(detector);

  // 800 KB/s into the 10 Mbps hub segment leaves < 500 KB/s available.
  bed_.add_load("S2", "N1",
                load::RateProfile::pulse(seconds(8), seconds(30),
                                         kilobytes_per_second(800)));

  QueryClient client(bed_.simulator(), bed_.host("S3"),
                     bed_.host("L").ip());
  std::vector<Event> events;
  client.set_event_callback([&](const Event& e) { events.push_back(e); });
  bool subscribed = false;
  bed_.simulator().schedule_at(seconds(1), [&] {
    client.subscribe([&](QueryResult r) { subscribed = r.ok(); });
  });
  bed_.run_until(seconds(45));

  EXPECT_TRUE(subscribed);
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front().kind, Event::Kind::kViolation);
  EXPECT_EQ(events.front().subject_a, "S1");
  EXPECT_EQ(events.front().subject_b, "N1");
  EXPECT_LT(events.front().available, kilobytes_per_second(500));
  EXPECT_DOUBLE_EQ(events.front().required, kilobytes_per_second(500));
  EXPECT_EQ(events.back().kind, Event::Kind::kRecovery);
  // Pushed events arrive with the violation time, after it happened.
  EXPECT_GT(events.front().time, seconds(8));
  EXPECT_EQ(server_->stats().events_published, events.size());
  EXPECT_EQ(client.stats().events_received, events.size());
  EXPECT_EQ(server_->subscriber_count(), 1u);
}

TEST_F(QueryServiceTest, UnsubscribeStopsTheStream) {
  mon::ViolationDetector detector(bed_.monitor());
  detector.add_requirement("S1", "N1", kilobytes_per_second(500));
  server_->attach(detector);
  bed_.add_load("S2", "N1",
                load::RateProfile::pulse(seconds(8), seconds(40),
                                         kilobytes_per_second(800)));

  QueryClient client(bed_.simulator(), bed_.host("S3"),
                     bed_.host("L").ip());
  std::size_t events = 0;
  client.set_event_callback([&](const Event&) { events++; });
  bed_.simulator().schedule_at(seconds(1), [&] {
    client.subscribe([](QueryResult) {});
  });
  // Unsubscribe after the violation but before the load ends: recovery
  // at ~40 s must not be delivered.
  bed_.simulator().schedule_at(seconds(20), [&] {
    client.unsubscribe([](QueryResult) {});
  });
  bed_.run_until(seconds(50));

  EXPECT_EQ(events, 1u);  // the violation only
  EXPECT_EQ(server_->subscriber_count(), 0u);
}

TEST_F(QueryServiceTest, SubscriberLimitRefusedWithError) {
  QueryServerConfig config;
  config.port = sim::kQueryPort + 1;
  config.max_subscribers = 1;
  QueryServer small(bed_.simulator(), bed_.host("L"), *engine_, config);

  QueryClientConfig client_config;
  client_config.server_port = config.port;
  QueryClient first(bed_.simulator(), bed_.host("S2"),
                    bed_.host("L").ip(), client_config);
  QueryClient second(bed_.simulator(), bed_.host("S3"),
                     bed_.host("L").ip(), client_config);

  std::vector<QueryResult> results;
  bed_.simulator().schedule_at(seconds(1), [&] {
    first.subscribe([&](QueryResult r) { results.push_back(r); });
  });
  bed_.simulator().schedule_at(seconds(2), [&] {
    second.subscribe([&](QueryResult r) { results.push_back(r); });
  });
  bed_.run_until(seconds(4));

  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].status, QueryResult::Status::kError);
  EXPECT_EQ(results[1].error, "subscriber limit reached");
  EXPECT_EQ(small.subscriber_count(), 1u);
  EXPECT_EQ(small.stats().bad_requests, 1u);
  // Re-subscribing from the registered client is idempotent, not a slot.
  bed_.simulator().schedule_at(seconds(5), [&] {
    first.subscribe([&](QueryResult r) { results.push_back(r); });
  });
  bed_.run_until(seconds(7));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(small.subscriber_count(), 1u);
}

TEST_F(QueryServiceTest, MalformedFrameCountsBadRequestAndReturnsError) {
  // Hand-roll a garbage datagram at the server's port.
  sim::Host& rogue = bed_.host("S4");
  const std::uint16_t src_port = rogue.udp().allocate_ephemeral_port();
  std::vector<Message> replies;
  rogue.udp().bind(src_port, [&](const sim::Ipv4Packet& packet) {
    try {
      replies.push_back(decode_message(packet.udp.payload));
    } catch (const std::exception&) {
    }
  });
  bed_.simulator().schedule_at(seconds(1), [&] {
    Bytes junk = {0x00, 0x00, 0x00, 0x02, 0xde, 0xad};
    rogue.udp().send(bed_.host("L").ip(), sim::kQueryPort, src_port,
                     std::move(junk));
  });
  bed_.run_until(seconds(3));

  EXPECT_EQ(server_->stats().bad_requests, 1u);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].header.type, MessageType::kError);
  EXPECT_FALSE(replies[0].error.empty());
}

TEST_F(QueryServiceTest, ClientTimesOutWhenServerGone) {
  server_.reset();  // unbind: requests fall on deaf ears
  QueryClientConfig config;
  config.timeout = 1 * kSecond;
  QueryClient client(bed_.simulator(), bed_.host("S3"),
                     bed_.host("L").ip(), config);
  std::vector<QueryResult> results;
  bed_.simulator().schedule_at(seconds(1), [&] {
    client.health([&](QueryResult r) { results.push_back(r); });
  });
  bed_.run_until(seconds(5));

  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, QueryResult::Status::kTimeout);
  EXPECT_EQ(client.stats().timeouts, 1u);
}

TEST_F(QueryServiceTest, PortConflictThrows) {
  EXPECT_THROW(QueryServer(bed_.simulator(), bed_.host("L"), *engine_),
               std::runtime_error);
}

TEST_F(QueryServiceTest, AgentEventsStreamQuarantineTransitions) {
  server_->attach_agent_events(bed_.monitor());
  QueryClient client(bed_.simulator(), bed_.host("S2"),
                     bed_.host("L").ip());
  std::vector<Event> events;
  client.set_event_callback([&](const Event& e) { events.push_back(e); });
  bed_.simulator().schedule_at(seconds(1), [&] {
    client.subscribe([](QueryResult) {});
  });
  bed_.run_until(seconds(5));
  // No failures in this run: drive the transition directly through the
  // monitor's quarantine callback path.
  Event quarantined;
  quarantined.kind = Event::Kind::kAgentQuarantined;
  quarantined.time = bed_.simulator().now();
  quarantined.subject_a = "N2";
  server_->publish(quarantined);
  bed_.run_until(seconds(7));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, Event::Kind::kAgentQuarantined);
  EXPECT_EQ(events[0].subject_a, "N2");
}

}  // namespace
}  // namespace netqos::query
