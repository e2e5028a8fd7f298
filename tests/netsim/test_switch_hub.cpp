// Switch learning/forwarding and hub repeating semantics — the behaviours
// the paper's §3.3 bandwidth rules depend on.
#include "netsim/simulator.h"
#include <gtest/gtest.h>

#include "netsim/network.h"

namespace netqos::sim {
namespace {

/// Three hosts on a switch: A(p1), B(p2), C(p3).
class SwitchFixture : public ::testing::Test {
 protected:
  SwitchFixture() : net(sim) {
    sw = &net.add_switch("sw0");
    for (int i = 1; i <= 3; ++i) {
      net.add_port(*sw, "p" + std::to_string(i), mbps(100));
    }
    const char* names[] = {"A", "B", "C"};
    for (int i = 0; i < 3; ++i) {
      Host& h = net.add_host(names[i]);
      hosts[i] = &h;
      net.add_host_interface(
          h, "eth0", mbps(100),
          Ipv4Address::parse("10.0.0." + std::to_string(i + 1)));
      net.connect(h, "eth0", *sw, "p" + std::to_string(i + 1));
    }
    for (auto* h : hosts) {
      h->udp().bind(9, [](const Ipv4Packet&) {});
    }
  }

  Simulator sim;
  Network net;
  Switch* sw = nullptr;
  Host* hosts[3] = {};
};

TEST_F(SwitchFixture, FirstFrameFloodsUnknownDestination) {
  hosts[0]->udp().send(hosts[1]->ip(), 9, 1000, {}, 100);
  sim.run_all();
  EXPECT_EQ(sw->stats().frames_flooded, 1u);
  // C's NIC saw the flood on the wire but filtered it.
  EXPECT_GT(hosts[2]->find_interface("eth0")->filtered_octets(), 0u);
  EXPECT_EQ(hosts[2]->find_interface("eth0")->counters().if_in_octets, 0u);
}

TEST_F(SwitchFixture, LearnedDestinationIsUnicastForwarded) {
  // B speaks first so the switch learns B's port.
  hosts[1]->udp().send(hosts[0]->ip(), 9, 1000, {}, 100);
  sim.run_all();
  const std::uint64_t c_filtered_before =
      hosts[2]->find_interface("eth0")->filtered_octets();

  hosts[0]->udp().send(hosts[1]->ip(), 9, 1000, {}, 100);
  sim.run_all();
  EXPECT_GE(sw->stats().frames_forwarded, 1u);
  // C saw nothing new: switch isolation (paper §3.3 / Figure 6).
  EXPECT_EQ(hosts[2]->find_interface("eth0")->filtered_octets(),
            c_filtered_before);
}

TEST_F(SwitchFixture, FdbLearnsSourcePorts) {
  hosts[0]->udp().send(hosts[1]->ip(), 9, 1000, {}, 10);
  sim.run_all();
  const MacAddress mac_a = hosts[0]->find_interface("eth0")->mac();
  Nic* port = sw->learned_port(mac_a);
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(port->name(), "p1");
}

TEST_F(SwitchFixture, FdbChangeCountMovesOnNewOrMovedMacOnly) {
  const MacAddress mac_a = hosts[0]->find_interface("eth0")->mac();
  hosts[0]->udp().send(hosts[1]->ip(), 9, 1000, {}, 10);
  sim.run_all();
  EXPECT_EQ(sw->stats().fdb_changes, 1u);  // A learned on p1

  // A repeat frame from the same port changes nothing.
  hosts[0]->udp().send(hosts[1]->ip(), 9, 1000, {}, 10);
  sim.run_all();
  EXPECT_EQ(sw->stats().fdb_changes, 1u);

  hosts[1]->udp().send(hosts[0]->ip(), 9, 1000, {}, 10);  // B is new
  sim.run_all();
  EXPECT_EQ(sw->stats().fdb_changes, 2u);

  // A's MAC now arrives on p3, as if A had been re-cabled: a move.
  EthernetFrame moved;
  moved.src = mac_a;
  moved.dst = hosts[1]->find_interface("eth0")->mac();
  sw->on_frame(*sw->find_interface("p3"), make_frame(moved));
  sim.run_all();
  EXPECT_EQ(sw->stats().fdb_changes, 3u);
  EXPECT_EQ(sw->learned_port(mac_a)->name(), "p3");
}

TEST_F(SwitchFixture, SwitchPortCountersSeeForwardedTraffic) {
  hosts[1]->udp().send(hosts[0]->ip(), 9, 1000, {}, 10);  // learn B
  sim.run_all();
  hosts[0]->udp().send(hosts[1]->ip(), 9, 1000, {}, 1000);
  sim.run_all();
  const Nic* p2 = sw->find_interface("p2");
  // p2 carried the frame out towards B.
  EXPECT_GT(p2->counters().if_out_octets, 1000u);
}

TEST_F(SwitchFixture, ManagementPlaneAnswersDirectly) {
  net.enable_switch_management(*sw, Ipv4Address::parse("10.0.0.100"));
  int received = 0;
  sw->management()->bind(7777, [&](const Ipv4Packet&) { ++received; });
  hosts[0]->udp().send(Ipv4Address::parse("10.0.0.100"), 7777, 1000, {}, 10);
  sim.run_all();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(sw->stats().frames_to_management, 1u);
}

TEST_F(SwitchFixture, ManagementRepliesReachRequester) {
  net.enable_switch_management(*sw, Ipv4Address::parse("10.0.0.100"));
  sw->management()->bind(7777, [&](const Ipv4Packet& p) {
    sw->management()->send(p.src, p.udp.src_port, 7777, {}, 5);
  });
  int replies = 0;
  hosts[0]->udp().bind(2000, [&](const Ipv4Packet&) { ++replies; });
  hosts[0]->udp().send(Ipv4Address::parse("10.0.0.100"), 7777, 2000, {}, 10);
  sim.run_all();
  EXPECT_EQ(replies, 1);
}

/// A and B on a hub; the hub uplinks to a switch with C behind it.
class HubFixture : public ::testing::Test {
 protected:
  HubFixture() : net(sim) {
    hub = &net.add_hub("hub0");
    sw = &net.add_switch("sw0");
    for (int i = 1; i <= 3; ++i) {
      net.add_port(*hub, "h" + std::to_string(i), mbps(10));
    }
    net.add_port(*sw, "p1", mbps(10));
    net.add_port(*sw, "p2", mbps(100));
    net.connect(*hub, "h1", *sw, "p1");

    a = &net.add_host("A");
    b = &net.add_host("B");
    c = &net.add_host("C");
    net.add_host_interface(*a, "eth0", mbps(10),
                           Ipv4Address::parse("10.0.0.1"));
    net.add_host_interface(*b, "eth0", mbps(10),
                           Ipv4Address::parse("10.0.0.2"));
    net.add_host_interface(*c, "eth0", mbps(100),
                           Ipv4Address::parse("10.0.0.3"));
    net.connect(*a, "eth0", *hub, "h2");
    net.connect(*b, "eth0", *hub, "h3");
    net.connect(*c, "eth0", *sw, "p2");
    for (auto* h : {a, b, c}) h->udp().bind(9, [](const Ipv4Packet&) {});
  }

  Simulator sim;
  Network net;
  Hub* hub = nullptr;
  Switch* sw = nullptr;
  Host *a = nullptr, *b = nullptr, *c = nullptr;
};

TEST_F(HubFixture, HubRepeatsToEveryOtherPort) {
  // C -> A crosses the switch into the hub; the hub repeats to B too.
  c->udp().send(a->ip(), 9, 1000, {}, 500);
  sim.run_all();
  EXPECT_GT(a->find_interface("eth0")->counters().if_in_octets, 500u);
  // B's NIC saw it on the wire but filtered (not addressed to B).
  EXPECT_GT(b->find_interface("eth0")->filtered_octets(), 500u);
  EXPECT_EQ(b->find_interface("eth0")->counters().if_in_octets, 0u);
}

TEST_F(HubFixture, HubTrafficDoesNotEchoBackToSender) {
  a->udp().send(b->ip(), 9, 1000, {}, 100);
  sim.run_all();
  // A must not receive its own frame back (hub skips the ingress port).
  EXPECT_EQ(a->find_interface("eth0")->counters().if_in_octets, 0u);
  EXPECT_EQ(a->find_interface("eth0")->filtered_octets(), 0u);
}

TEST_F(HubFixture, IntraHubTrafficStaysOffSwitchHosts) {
  // Switch sees the frame on its hub port, learns, but C should receive
  // nothing once MACs are learned. First frame floods (unknown dst), so
  // prime the FDB with a reply from B.
  a->udp().send(b->ip(), 9, 1000, {}, 10);
  sim.run_all();
  b->udp().send(a->ip(), 9, 1000, {}, 10);
  sim.run_all();
  const std::uint64_t c_before =
      c->find_interface("eth0")->filtered_octets() +
      c->find_interface("eth0")->counters().if_in_octets;

  a->udp().send(b->ip(), 9, 1000, {}, 400);
  sim.run_all();
  const std::uint64_t c_after =
      c->find_interface("eth0")->filtered_octets() +
      c->find_interface("eth0")->counters().if_in_octets;
  // The switch learned B lives behind its hub port, so it does not
  // forward the frame to C's port.
  EXPECT_EQ(c_after, c_before);
}

TEST_F(HubFixture, SwitchUplinkPortSeesAllHubBoundTraffic) {
  c->udp().send(a->ip(), 9, 1000, {}, 300);
  c->udp().send(b->ip(), 9, 1000, {}, 300);
  sim.run_all();
  const Nic* p1 = sw->find_interface("p1");
  // Both frames crossed the uplink.
  EXPECT_GT(p1->counters().if_out_octets, 600u);
}

}  // namespace
}  // namespace netqos::sim
