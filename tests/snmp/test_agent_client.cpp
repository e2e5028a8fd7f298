// Manager <-> agent conversations over the simulated network.
#include <gtest/gtest.h>

#include "netsim/network.h"
#include "netsim/simulator.h"
#include "snmp/agent.h"
#include "snmp/ber.h"
#include "snmp/client.h"
#include "snmp/mib2.h"

namespace netqos::snmp {
namespace {

class AgentClientFixture : public ::testing::Test {
 protected:
  AgentClientFixture() : net(sim) {
    manager = &net.add_host("manager");
    target = &net.add_host("target");
    net.add_host_interface(*manager, "eth0", mbps(100),
                           sim::Ipv4Address::parse("10.0.0.1"));
    net.add_host_interface(*target, "eth0", mbps(100),
                           sim::Ipv4Address::parse("10.0.0.2"));
    net.connect(*manager, "eth0", *target, "eth0");

    AgentConfig config;
    config.hiccup_probability = 0.0;
    agent = std::make_unique<SnmpAgent>(sim, target->udp(), config);
    register_system_group(agent->mib(), sim, "target");
    if_table = std::make_unique<Mib2IfTable>(
        agent->mib(), sim,
        std::vector<const sim::Nic*>{target->find_interface("eth0")});

    client = std::make_unique<SnmpClient>(sim, manager->udp());
  }

  sim::Simulator sim;
  sim::Network net;
  sim::Host* manager = nullptr;
  sim::Host* target = nullptr;
  std::unique_ptr<SnmpAgent> agent;
  std::unique_ptr<Mib2IfTable> if_table;
  std::unique_ptr<SnmpClient> client;
};

TEST_F(AgentClientFixture, GetSysUpTime) {
  sim.run_until(seconds(3));
  std::optional<SnmpResult> got;
  client->get(target->ip(), "public", {mib2::kSysUpTime.child(0)},
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(4));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());
  ASSERT_EQ(got->varbinds.size(), 1u);
  // Roughly 3 seconds of uptime = ~300 ticks at request time.
  const auto ticks = as_timeticks(got->varbinds[0].value);
  EXPECT_GE(ticks, 300u);
  EXPECT_LE(ticks, 310u);
  EXPECT_GT(got->rtt, 0);
  EXPECT_EQ(got->attempts, 1);
}

TEST_F(AgentClientFixture, GetMultipleVarbinds) {
  std::optional<SnmpResult> got;
  client->get(target->ip(), "public",
              {mib2::kSysUpTime.child(0), mib2::kSysName.child(0),
               mib2::if_column(mib2::kIfSpeedColumn, 1)},
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value() && got->ok());
  ASSERT_EQ(got->varbinds.size(), 3u);
  EXPECT_EQ(std::get<std::string>(got->varbinds[1].value), "target");
  EXPECT_EQ(as_gauge32(got->varbinds[2].value), 100'000'000u);
}

TEST_F(AgentClientFixture, V2cMissingObjectGivesException) {
  std::optional<SnmpResult> got;
  client->get(target->ip(), "public", {Oid({1, 2, 3, 4})},
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());  // v2c: noError with exception varbind
  EXPECT_EQ(got->varbinds[0].value,
            SnmpValue(VarBindException::kNoSuchInstance));
}

TEST_F(AgentClientFixture, V1MissingObjectGivesNoSuchName) {
  ClientConfig config;
  config.version = SnmpVersion::kV1;
  SnmpClient v1(sim, manager->udp(), config);
  std::optional<SnmpResult> got;
  v1.get(target->ip(), "public", {Oid({1, 2, 3, 4})},
         [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, SnmpResult::Status::kErrorResponse);
  EXPECT_EQ(got->error_status, ErrorStatus::kNoSuchName);
  EXPECT_EQ(got->error_index, 1);
}

TEST_F(AgentClientFixture, WrongCommunityTimesOut) {
  std::optional<SnmpResult> got;
  client->get(target->ip(), "wrong", {mib2::kSysUpTime.child(0)},
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(10));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, SnmpResult::Status::kTimeout);
  EXPECT_EQ(got->attempts, 3);  // initial + 2 retries
  EXPECT_EQ(agent->stats().auth_failures, 3u);
}

TEST_F(AgentClientFixture, UnreachableAgentFailsToSend) {
  std::optional<SnmpResult> got;
  client->get(sim::Ipv4Address::parse("10.9.9.9"), "public",
              {mib2::kSysUpTime.child(0)},
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, SnmpResult::Status::kSendFailed);
}

TEST_F(AgentClientFixture, GetNextWalksSystemGroup) {
  std::optional<SnmpResult> got;
  client->get_next(target->ip(), "public", {mib2::kSysDescr},
                   [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(got->varbinds[0].oid, mib2::kSysDescr.child(0));
}

TEST_F(AgentClientFixture, GetNextPastEndGivesEndOfMibView) {
  std::optional<SnmpResult> got;
  client->get_next(target->ip(), "public", {Oid({9, 9, 9})},
                   [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(got->varbinds[0].value,
            SnmpValue(VarBindException::kEndOfMibView));
}

TEST_F(AgentClientFixture, GetBulkReturnsRepetitions) {
  std::optional<SnmpResult> got;
  client->get_bulk(target->ip(), "public", {mib2::kIfEntry}, 0, 10,
                   [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_EQ(got->varbinds.size(), 10u);
  // All results are within (or marked end of) the MIB in OID order.
  for (std::size_t i = 1; i < got->varbinds.size(); ++i) {
    EXPECT_LT(got->varbinds[i - 1].oid, got->varbinds[i].oid);
  }
}

TEST_F(AgentClientFixture, CountersVisibleThroughAgent) {
  // Generate some traffic so counters move, then poll.
  target->udp().bind(7000, [](const sim::Ipv4Packet&) {});
  const auto sport = manager->udp().allocate_ephemeral_port();
  manager->udp().send(target->ip(), 7000, sport, {}, 1000);
  sim.run_until(seconds(1));

  std::optional<SnmpResult> got;
  client->get(target->ip(), "public",
              {mib2::if_column(mib2::kIfInOctetsColumn, 1)},
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(2));
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_GE(as_counter32(got->varbinds[0].value), 1000u);
}

/// A v2c GetRequest (or another PDU type, by `pdu_tag`) whose varbind
/// list content is `varbinds` verbatim and whose request-id is written
/// as given, so malformed varbinds or an out-of-range request-id can sit
/// inside a well-formed envelope.
Bytes get_request_with_varbinds(const std::string& community,
                                const Bytes& varbinds,
                                std::int64_t request_id = 77,
                                std::uint8_t pdu_tag = ber::kTagGetRequest) {
  ByteWriter pdu;
  ber::write_integer(pdu, request_id);
  ber::write_integer(pdu, 0);
  ber::write_integer(pdu, 0);
  ber::write_wrapped(pdu, ber::kTagSequence, varbinds);
  ByteWriter message;
  ber::write_integer(message, static_cast<std::int64_t>(SnmpVersion::kV2c));
  ber::write_octet_string(message, community);
  ber::write_wrapped(message, pdu_tag, pdu.bytes());
  ByteWriter wire;
  ber::write_wrapped(wire, ber::kTagSequence, message.bytes());
  return std::move(wire).take();
}

TEST_F(AgentClientFixture, MalformedPacketCountsDecodeError) {
  std::size_t replies = 0;
  const auto sport = manager->udp().allocate_ephemeral_port();
  manager->udp().bind(sport, [&](const sim::Ipv4Packet&) { ++replies; });
  const auto send = [&](Bytes wire) {
    manager->udp().send(target->ip(), sim::kSnmpPort, sport,
                        std::move(wire));
    sim.run_until(sim.now() + seconds(1));
  };

  send({0xde, 0xad, 0xbe, 0xef});
  EXPECT_EQ(agent->stats().decode_errors, 1u);

  ByteWriter body;
  ber::write_oid(body, mib2::kSysUpTime.child(0));
  ber::write_null(body);
  ByteWriter varbind;
  ber::write_wrapped(varbind, ber::kTagSequence, body.bytes());
  const Bytes good = std::move(varbind).take();
  // The varbind's SEQUENCE header claims two bytes the list lacks.
  const Bytes truncated(good.begin(), good.end() - 2);
  ber::write_integer(body, 0);
  ByteWriter trailing;
  ber::write_wrapped(trailing, ber::kTagSequence, body.bytes());

  // The community is checked on the envelope, before any varbind is
  // decoded: a wrong one is an auth failure even over broken varbinds.
  send(get_request_with_varbinds("wrong", good));
  send(get_request_with_varbinds("wrong", truncated));
  EXPECT_EQ(agent->stats().auth_failures, 2u);
  EXPECT_EQ(agent->stats().decode_errors, 1u);

  send(get_request_with_varbinds("public", truncated));
  send(get_request_with_varbinds("public", std::move(trailing).take()));
  // request-id is an Integer32; five octets of it are malformed.
  send(get_request_with_varbinds("public", good,
                                 (std::int64_t{1} << 32) + 77));
  EXPECT_EQ(agent->stats().decode_errors, 4u);
  EXPECT_EQ(agent->stats().auth_failures, 2u);
  EXPECT_EQ(replies, 0u);
  EXPECT_EQ(agent->stats().responses, 0u);

  // The same envelope around a well-formed varbind is answered.
  send(get_request_with_varbinds("public", good));
  EXPECT_EQ(replies, 1u);
  EXPECT_EQ(agent->stats().responses, 1u);
}

// A GetResponse whose request-id needs more than 32 bits is dropped as
// malformed, not matched to the pending request with the same low 32
// bits; that request stays pending until a well-formed reply arrives.
TEST_F(AgentClientFixture, ClientDropsResponseWithOutOfRangeRequestId) {
  target->udp().unbind(sim::kSnmpPort);
  std::vector<sim::Ipv4Packet> requests;
  target->udp().bind(sim::kSnmpPort, [&](const sim::Ipv4Packet& packet) {
    requests.push_back(packet);
  });
  std::optional<SnmpResult> got;
  client->get(target->ip(), "public", {mib2::kSysUpTime.child(0)},
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(sim.now() + milliseconds(10));
  ASSERT_EQ(requests.size(), 1u);
  const std::int32_t id =
      decode_message(requests[0].udp.payload).pdu.request_id;
  const auto reply = [&](std::int64_t request_id) {
    target->udp().send(requests[0].src, requests[0].udp.src_port,
                       sim::kSnmpPort,
                       get_request_with_varbinds("public", {}, request_id,
                                                 ber::kTagGetResponse));
    sim.run_until(sim.now() + milliseconds(10));
  };

  reply((std::int64_t{1} << 32) + id);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(client->outstanding(), 1u);
  EXPECT_EQ(client->stats().mismatched, 0u);

  reply(id);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());
  EXPECT_EQ(client->outstanding(), 0u);
}

TEST_F(AgentClientFixture, SetRequestAnswersGenErr) {
  // This agent is read-only; SET gets a genErr response.
  std::optional<SnmpResult> got;
  Pdu pdu;
  // Use client get path but craft via get(): simpler to send SET via a
  // raw message through the UDP stack.
  Message msg;
  msg.pdu.type = PduType::kSetRequest;
  msg.pdu.request_id = 77;
  msg.pdu.varbinds.push_back({mib2::kSysName.child(0),
                              SnmpValue(std::string("evil"))});
  const auto sport = manager->udp().allocate_ephemeral_port();
  std::optional<Message> reply;
  manager->udp().bind(sport, [&](const sim::Ipv4Packet& p) {
    reply = decode_message(p.udp.payload);
  });
  manager->udp().send(target->ip(), sim::kSnmpPort, sport,
                      encode_message(msg));
  sim.run_until(seconds(1));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->pdu.type, PduType::kGetResponse);
  EXPECT_EQ(reply->pdu.error_status, ErrorStatus::kGenErr);
  (void)got;
  (void)pdu;
}

TEST_F(AgentClientFixture, ClientStatsTrack) {
  std::optional<SnmpResult> got;
  client->get(target->ip(), "public", {mib2::kSysUpTime.child(0)},
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  EXPECT_EQ(client->stats().requests_sent, 1u);
  EXPECT_EQ(client->stats().responses, 1u);
  EXPECT_EQ(client->stats().timeouts, 0u);
  EXPECT_EQ(client->outstanding(), 0u);
}

TEST_F(AgentClientFixture, SnmpTrafficCountsOnWire) {
  // The paper attributes ~2% of measured load to SNMP queries: polling
  // itself must consume bandwidth.
  const auto before = manager->find_interface("eth0")->counters();
  std::optional<SnmpResult> got;
  client->get(target->ip(), "public", {mib2::kSysUpTime.child(0)},
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  const auto after = manager->find_interface("eth0")->counters();
  EXPECT_GT(after.if_out_octets, before.if_out_octets);  // request
  EXPECT_GT(after.if_in_octets, before.if_in_octets);    // response
}

}  // namespace
}  // namespace netqos::snmp
