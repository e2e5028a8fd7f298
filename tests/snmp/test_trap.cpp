// SNMP notifications: v2 traps, classic v1 Trap-PDU wire format, and the
// listener's translation between them.
#include <gtest/gtest.h>

#include <algorithm>

#include "netsim/network.h"
#include "netsim/simulator.h"
#include "snmp/agent.h"
#include "snmp/ber.h"
#include "snmp/mib2.h"
#include "snmp/trap.h"

namespace netqos::snmp {
namespace {

TEST(TrapV1Codec, RoundTripsClassicTrap) {
  Message msg;
  msg.version = SnmpVersion::kV1;
  msg.community = "public";
  TrapV1Pdu trap;
  trap.enterprise = Oid({1, 3, 6, 1, 4, 1, 9999});
  trap.agent_addr = 0x0a000001;
  trap.generic_trap = GenericTrap::kLinkDown;
  trap.specific_trap = 0;
  trap.time_stamp_ticks = 12345;
  trap.varbinds.push_back({mib2::if_column(mib2::kIfIndexColumn, 2),
                           SnmpValue(std::int64_t{2})});
  msg.trap_v1 = trap;

  const Message back = decode_message(encode_message(msg));
  ASSERT_TRUE(back.trap_v1.has_value());
  EXPECT_EQ(back.version, SnmpVersion::kV1);
  EXPECT_EQ(back.trap_v1->enterprise, trap.enterprise);
  EXPECT_EQ(back.trap_v1->agent_addr, trap.agent_addr);
  EXPECT_EQ(back.trap_v1->generic_trap, GenericTrap::kLinkDown);
  EXPECT_EQ(back.trap_v1->time_stamp_ticks, 12345u);
  ASSERT_EQ(back.trap_v1->varbinds.size(), 1u);
  EXPECT_EQ(back.trap_v1->varbinds[0], trap.varbinds[0]);
}

TEST(TrapV1Codec, EnterpriseSpecificRoundTrip) {
  Message msg;
  msg.version = SnmpVersion::kV1;
  TrapV1Pdu trap;
  trap.enterprise = Oid({1, 3, 6, 1, 4, 1, 42});
  trap.generic_trap = GenericTrap::kEnterpriseSpecific;
  trap.specific_trap = 17;
  msg.trap_v1 = trap;
  const Message back = decode_message(encode_message(msg));
  ASSERT_TRUE(back.trap_v1.has_value());
  EXPECT_EQ(back.trap_v1->generic_trap, GenericTrap::kEnterpriseSpecific);
  EXPECT_EQ(back.trap_v1->specific_trap, 17);
}

// The time-stamp is TimeTicks: the largest 32-bit value round-trips,
// one past it is malformed rather than truncated.
TEST(TrapV1Codec, TimeStampPastTimeTicksRejected) {
  Message msg;
  msg.version = SnmpVersion::kV1;
  TrapV1Pdu trap;
  trap.enterprise = Oid({1, 3, 6, 1, 4, 1, 42});
  trap.time_stamp_ticks = 0xffffffffu;
  msg.trap_v1 = trap;
  Bytes wire = encode_message(msg);
  EXPECT_EQ(decode_message(wire).trap_v1->time_stamp_ticks, 0xffffffffu);

  // TimeTicks 2^32 - 1 is 43 05 00 ff ff ff ff; turning the leading zero
  // into 01 makes it 2^32 + 2^32 - 1.
  const Bytes ticks{0x43, 0x05, 0x00, 0xff, 0xff, 0xff, 0xff};
  const auto at = std::search(wire.begin(), wire.end(), ticks.begin(),
                              ticks.end());
  ASSERT_NE(at, wire.end());
  at[2] = 0x01;
  EXPECT_THROW(decode_message(wire), BerError);
}

/// Manager host + agent host on a cable, with a trap listener.
class TrapFixture : public ::testing::Test {
 protected:
  TrapFixture() : net(sim) {
    manager = &net.add_host("manager");
    target = &net.add_host("target");
    net.add_host_interface(*manager, "eth0", mbps(100),
                           sim::Ipv4Address::parse("10.0.0.1"));
    net.add_host_interface(*target, "eth0", mbps(100),
                           sim::Ipv4Address::parse("10.0.0.2"));
    net.connect(*manager, "eth0", *target, "eth0");

    agent = std::make_unique<SnmpAgent>(sim, target->udp(), AgentConfig{});
    register_system_group(agent->mib(), sim, "target");
    agent->set_trap_sink(manager->ip());
    listener = std::make_unique<TrapListener>(
        manager->udp(),
        [this](const TrapNotification& t) { received.push_back(t); });
  }

  sim::Simulator sim;
  sim::Network net;
  sim::Host* manager = nullptr;
  sim::Host* target = nullptr;
  std::unique_ptr<SnmpAgent> agent;
  std::unique_ptr<TrapListener> listener;
  std::vector<TrapNotification> received;
};

TEST_F(TrapFixture, V2TrapDelivered) {
  sim.run_until(seconds(5));
  ASSERT_TRUE(agent->send_trap(
      mib2::kLinkDownTrap,
      {{mib2::if_column(mib2::kIfIndexColumn, 1),
        SnmpValue(std::int64_t{1})}}));
  sim.run_until(seconds(6));

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].trap_oid, mib2::kLinkDownTrap);
  EXPECT_EQ(received[0].source, target->ip());
  EXPECT_NEAR(received[0].sys_uptime_ticks, 500u, 5u);
  ASSERT_EQ(received[0].varbinds.size(), 1u);
  EXPECT_EQ(agent->stats().traps_sent, 1u);
}

TEST_F(TrapFixture, V1GenericTrapTranslated) {
  ASSERT_TRUE(agent->send_trap_v1(Oid({1, 3, 6, 1, 4, 1, 9999}),
                                  GenericTrap::kLinkUp, 0));
  sim.run_until(seconds(1));
  ASSERT_EQ(received.size(), 1u);
  // RFC 2576: linkUp (generic 3) -> 1.3.6.1.6.3.1.1.5.4.
  EXPECT_EQ(received[0].trap_oid, mib2::kLinkUpTrap);
}

TEST_F(TrapFixture, V1ColdStartTranslated) {
  agent->send_trap_v1(Oid({1, 3, 6, 1, 4, 1, 9999}),
                      GenericTrap::kColdStart, 0);
  sim.run_until(seconds(1));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].trap_oid, Oid({1, 3, 6, 1, 6, 3, 1, 1, 5, 1}));
}

TEST_F(TrapFixture, V1EnterpriseSpecificTranslated) {
  agent->send_trap_v1(Oid({1, 3, 6, 1, 4, 1, 42}),
                      GenericTrap::kEnterpriseSpecific, 7);
  sim.run_until(seconds(1));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].trap_oid, Oid({1, 3, 6, 1, 4, 1, 42, 0, 7}));
}

TEST_F(TrapFixture, MalformedTrapCounted) {
  const auto sport = target->udp().allocate_ephemeral_port();
  target->udp().send(manager->ip(), sim::kSnmpTrapPort, sport,
                     {0x01, 0x02, 0x03});
  sim.run_until(seconds(1));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(listener->stats().malformed, 1u);
}

TEST_F(TrapFixture, NonTrapPduIgnored) {
  Message msg;
  msg.pdu.type = PduType::kGetRequest;
  const auto sport = target->udp().allocate_ephemeral_port();
  target->udp().send(manager->ip(), sim::kSnmpTrapPort, sport,
                     encode_message(msg));
  sim.run_until(seconds(1));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(listener->stats().malformed, 1u);
}

TEST_F(TrapFixture, ListenerPortConflictThrows) {
  EXPECT_THROW(TrapListener(manager->udp(), [](const TrapNotification&) {}),
               std::logic_error);
}

}  // namespace
}  // namespace netqos::snmp
