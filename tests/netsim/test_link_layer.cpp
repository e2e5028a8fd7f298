// NIC + link level behaviour: serialization delay, counters, MAC
// filtering, queue overflow, frame handle lifetime, and when each part of
// a frame hop becomes visible.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "netsim/link.h"
#include "netsim/network.h"
#include "netsim/packet.h"
#include "netsim/simulator.h"
#include "netsim/trace.h"

namespace netqos::sim {
namespace {

TEST(Packet, WireSizesIncludeAllHeaders) {
  EthernetFrame frame;
  frame.ip.udp.padding = 1472;
  // 1472 + 8 (UDP) + 20 (IP) + 14 + 4 (Eth) = 1518.
  EXPECT_EQ(frame.wire_size(), 1518u);
}

TEST(Packet, MinimumFrameSizeEnforced) {
  EthernetFrame frame;  // empty payload: 18 + 28 = 46 < 64
  EXPECT_EQ(frame.wire_size(), kMinEthernetFrameBytes);
}

TEST(Packet, PayloadPlusPaddingCounted) {
  UdpDatagram dgram;
  dgram.payload = {1, 2, 3};
  dgram.padding = 100;
  EXPECT_EQ(dgram.payload_size(), 103u);
  EXPECT_EQ(dgram.wire_size(), 111u);
}

TEST(Packet, MaxUdpPayloadMatchesMtu) {
  EXPECT_EQ(kMaxUdpPayloadBytes, 1472u);
  Ipv4Packet packet;
  packet.udp.padding = kMaxUdpPayloadBytes;
  EXPECT_EQ(packet.wire_size(), kIpMtuBytes);
}

TEST(FrameHandle, NodeLivesUntilTheLastHandleDrops) {
  BufferPool pool;
  {
    EthernetFrame raw;
    raw.ip.udp.payload = Bytes(32, 0xab);
    Frame a = make_pooled_frame(std::move(raw), &pool);
    const EthernetFrame* node = &*a;
    Frame b = a;
    Frame c = std::move(b);
    Frame d;
    d = c;
    Frame& also_d = d;
    d = also_d;             // self copy-assignment
    d = std::move(also_d);  // self move-assignment
    Frame e;
    e = std::move(a);
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
    EXPECT_EQ(&*c, node);
    EXPECT_EQ(&*d, node);
    EXPECT_EQ(&*e, node);
    c = Frame();
    d = Frame();
    EXPECT_EQ(pool.stats().releases, 0u);
    EXPECT_EQ(e->ip.udp.payload.size(), 32u);
  }
  // The payload went back to the pool exactly once.
  EXPECT_EQ(pool.stats().releases, 1u);
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST(FrameHandle, HubFloodReleasesThePayloadOnce) {
  // One frame into a hub goes out of every other port: N - 1 handles to
  // one node, one payload returned to the pool.
  constexpr int kPorts = 6;
  Simulator sim;
  Network net(sim);
  Hub& hub = net.add_hub("H");
  std::vector<Host*> hosts;
  for (std::uint8_t i = 0; i < kPorts; ++i) {
    const std::string n = std::to_string(i);
    Host& h = net.add_host("S" + n);
    net.add_host_interface(h, "eth0", mbps(10), Ipv4Address(10, 0, 0, i + 1));
    net.add_port(hub, "p" + n, mbps(10));
    net.connect(h, "eth0", hub, "p" + n);
    hosts.push_back(&h);
  }
  int received = 0;
  hosts[1]->udp().bind(1234, [&](const Ipv4Packet&) { ++received; });
  ASSERT_TRUE(hosts[0]->udp().send(hosts[1]->ip(), 1234, 5555, Bytes(32, 1)));
  sim.run_all();
  EXPECT_EQ(received, 1);
  for (int i = 2; i < kPorts; ++i) {
    EXPECT_GT(hosts[i]->find_interface("eth0")->filtered_octets(), 0u) << i;
  }
  EXPECT_EQ(sim.buffer_pool().stats().releases, 1u);
  EXPECT_EQ(sim.buffer_pool().pooled(), 1u);
}

/// Two hosts on a direct cable.
class TwoHostFixture : public ::testing::Test {
 protected:
  TwoHostFixture() : net(sim) {
    a = &net.add_host("A");
    b = &net.add_host("B");
    net.add_host_interface(*a, "eth0", mbps(10),
                           Ipv4Address::parse("10.0.0.1"));
    net.add_host_interface(*b, "eth0", mbps(10),
                           Ipv4Address::parse("10.0.0.2"));
    net.connect(*a, "eth0", *b, "eth0");
  }

  Simulator sim;
  Network net;
  Host* a = nullptr;
  Host* b = nullptr;
};

TEST_F(TwoHostFixture, DatagramArrivesAndCountersMatch) {
  int received = 0;
  b->udp().bind(1234, [&](const Ipv4Packet& p) {
    ++received;
    EXPECT_EQ(p.src, Ipv4Address::parse("10.0.0.1"));
    EXPECT_EQ(p.udp.payload_size(), 100u);
  });
  ASSERT_TRUE(a->udp().send(b->ip(), 1234, 5555, {}, 100));
  sim.run_until(seconds(1));
  EXPECT_EQ(received, 1);

  const Nic* na = a->find_interface("eth0");
  const Nic* nb = b->find_interface("eth0");
  // 100 payload + 8 + 20 + 18 = 146 octets on the wire.
  EXPECT_EQ(na->counters().if_out_octets, 146u);
  EXPECT_EQ(na->counters().if_out_ucast_pkts, 1u);
  EXPECT_EQ(nb->counters().if_in_octets, 146u);
  EXPECT_EQ(nb->counters().if_in_ucast_pkts, 1u);
}

TEST_F(TwoHostFixture, SerializationDelayIsExact) {
  SimTime arrival = -1;
  b->udp().bind(1234, [&](const Ipv4Packet&) { arrival = sim.now(); });
  a->udp().send(b->ip(), 1234, 5555, {}, 1472);
  sim.run_all();
  // 1518 bytes at 10 Mbps = 1214.4 us serialization + 500 ns propagation.
  const SimTime expected = transmission_delay(1518, mbps(10)) + 500;
  EXPECT_EQ(arrival, expected);
}

TEST_F(TwoHostFixture, BackToBackFramesQueue) {
  std::vector<SimTime> arrivals;
  b->udp().bind(1234, [&](const Ipv4Packet&) {
    arrivals.push_back(sim.now());
  });
  a->udp().send(b->ip(), 1234, 5555, {}, 1472);
  a->udp().send(b->ip(), 1234, 5555, {}, 1472);
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second frame serializes after the first: exactly one frame time apart.
  EXPECT_EQ(arrivals[1] - arrivals[0], transmission_delay(1518, mbps(10)));
}

TEST_F(TwoHostFixture, SendToUnknownAddressFails) {
  EXPECT_FALSE(
      a->udp().send(Ipv4Address::parse("10.9.9.9"), 1, 2, {}, 10));
  EXPECT_EQ(a->udp().stats().send_failures, 1u);
}

TEST_F(TwoHostFixture, UnboundPortCountsDrop) {
  a->udp().send(b->ip(), 4242, 5555, {}, 10);
  sim.run_all();
  EXPECT_EQ(b->udp().stats().no_handler_drops, 1u);
}

TEST_F(TwoHostFixture, LoopbackDeliversWithoutWireTraffic) {
  int received = 0;
  a->udp().bind(99, [&](const Ipv4Packet&) { ++received; });
  ASSERT_TRUE(a->udp().send(a->ip(), 99, 5555, {}, 10));
  sim.run_all();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(a->find_interface("eth0")->counters().if_out_octets, 0u);
}

TEST_F(TwoHostFixture, QueueOverflowDropsTail) {
  Nic* na = a->find_interface("eth0");
  na->set_queue_limit(4);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    ok += a->udp().send(b->ip(), 1, 2, {}, 1000);
  }
  // One frame transmitting + 4 queued = 5 accepted.
  EXPECT_EQ(ok, 5);
  EXPECT_EQ(na->counters().if_out_discards, 5u);
}

TEST_F(TwoHostFixture, QueueFreesAsFramesFinish) {
  Nic* na = a->find_interface("eth0");
  na->set_queue_limit(4);
  int ok = 0;
  for (int i = 0; i < 10; ++i) {
    ok += a->udp().send(b->ip(), 1, 2, {}, 1000);
  }
  EXPECT_EQ(ok, 5);
  // 1000 payload + 46 header octets per frame. Once three frames have
  // finished, the fourth is serializing and one waits behind it.
  const SimDuration frame_time = transmission_delay(1046, mbps(10));
  sim.run_until(3 * frame_time + 1);
  ok = 0;
  for (int i = 0; i < 3; ++i) {
    ok += a->udp().send(b->ip(), 1, 2, {}, 1000);
  }
  EXPECT_EQ(ok, 3);
  EXPECT_FALSE(a->udp().send(b->ip(), 1, 2, {}, 1000));  // full again
  EXPECT_EQ(na->counters().if_out_discards, 6u);
}

/// Two hosts on a 100 Mbps cable, for the timing of one frame hop: a
/// frame counts out at the sender and crosses the link when its last bit
/// is serialized, and counts in at the receiver one propagation later.
class HopFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kWire = 1518;  // a full-size frame

  HopFixture() : net(sim) {
    a = &net.add_host("A");
    b = &net.add_host("B");
    net.add_host_interface(*a, "eth0", mbps(100),
                           Ipv4Address::parse("10.0.0.1"));
    net.add_host_interface(*b, "eth0", mbps(100),
                           Ipv4Address::parse("10.0.0.2"));
    link = &net.connect(*a, "eth0", *b, "eth0");
    na = a->find_interface("eth0");
    nb = b->find_interface("eth0");
    b->udp().bind(9, [this](const Ipv4Packet&) { ++received; });
  }

  /// Sends one full-size frame A -> B on an idle NIC; returns the time
  /// its serialization finishes.
  SimTime send_full_frame() {
    EXPECT_TRUE(a->udp().send(b->ip(), 9, 5555, {}, kMaxUdpPayloadBytes));
    return sim.now() + transmission_delay(kWire, mbps(100));
  }

  Simulator sim;
  Network net;
  Host* a = nullptr;
  Host* b = nullptr;
  Link* link = nullptr;
  Nic* na = nullptr;
  Nic* nb = nullptr;
  int received = 0;
};

TEST_F(HopFixture, CountersMoveAtFinishAndArrival) {
  const SimTime finish = send_full_frame();
  sim.run_until(finish - 1);
  EXPECT_EQ(na->counters().if_out_octets, 0u);
  EXPECT_EQ(link->octets_carried(), 0u);

  sim.run_until(finish + 1);
  EXPECT_EQ(na->counters().if_out_octets, kWire);
  EXPECT_EQ(link->octets_carried(), kWire);
  EXPECT_EQ(nb->counters().if_in_octets, 0u);  // still propagating

  sim.run_until(finish + link->propagation_delay() + 1);
  EXPECT_EQ(nb->counters().if_in_octets, kWire);
  EXPECT_EQ(received, 1);
}

TEST_F(HopFixture, CarrierDownBeforeFinishDropsTheFrame) {
  const SimTime finish = send_full_frame();
  sim.run_until(finish - 1);
  link->set_up(false);
  sim.run_all();
  EXPECT_EQ(link->frames_dropped_down(), 1u);
  EXPECT_EQ(link->frames_carried(), 0u);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(nb->counters().if_in_octets, 0u);
  // The sender counted it out: it left the NIC before the carrier check.
  EXPECT_EQ(na->counters().if_out_octets, kWire);
}

TEST_F(HopFixture, CarrierDownAfterFinishStillDelivers) {
  const SimTime finish = send_full_frame();
  sim.run_until(finish + 1);
  link->set_up(false);
  sim.run_all();
  EXPECT_EQ(link->frames_dropped_down(), 0u);
  EXPECT_EQ(link->frames_carried(), 1u);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(nb->counters().if_in_octets, kWire);
}

TEST_F(HopFixture, LossDrawsFollowFinishOrderAcrossDirections) {
  // Eight frames each way, sized so that the two directions' finishes
  // interleave. B starts 1 ns after A, so no two finishes tie. A frame is
  // named by its source port: 1000 + i from A, 2000 + i from B.
  link->set_loss(0.5, 7);
  std::vector<int> delivered;
  const auto record = [&](const Ipv4Packet& p) {
    delivered.push_back(p.udp.src_port);
  };
  b->udp().bind(100, record);
  a->udp().bind(100, record);
  for (int i = 0; i < 8; ++i) {
    a->udp().send(b->ip(), 100, static_cast<std::uint16_t>(1000 + i), {},
                  static_cast<std::size_t>(200 + 97 * i));
  }
  sim.run_until(1);
  for (int i = 0; i < 8; ++i) {
    b->udp().send(a->ip(), 100, static_cast<std::uint16_t>(2000 + i), {},
                  static_cast<std::size_t>(900 - 61 * i));
  }
  sim.run_all();
  EXPECT_EQ(link->frames_carried() + link->frames_dropped_loss(), 16u);
  EXPECT_EQ(link->frames_carried(), delivered.size());
  // Loss is drawn once per frame at its finish, in finish order across
  // both directions, which fixes this sequence.
  EXPECT_EQ(delivered, (std::vector<int>{1000, 2000, 1002, 1003, 2001, 1006,
                                         2004, 1007, 2005, 2007}));
}

TEST_F(HopFixture, TraceRecordTimeIsTheSerializationFinish) {
  FrameTracer tracer(sim);
  tracer.attach(*link, "a-b");
  const SimTime first = send_full_frame();
  // Then a frame to a foreign MAC, which B's filter drops.
  EthernetFrame foreign;
  foreign.src = na->mac();
  foreign.dst = MacAddress::from_id(0xdead);
  foreign.ip.src = a->ip();
  foreign.ip.dst = Ipv4Address::parse("10.0.0.9");
  foreign.ip.udp.padding = 100;  // 146 octets on the wire
  ASSERT_TRUE(na->transmit(make_frame(foreign)));
  const SimTime second = first + transmission_delay(146, mbps(100));
  sim.run_until(second + seconds(1));
  ASSERT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.records()[0].time, first);
  EXPECT_EQ(tracer.records()[0].wire_bytes, kWire);
  EXPECT_EQ(tracer.records()[1].time, second);
  EXPECT_EQ(tracer.records()[1].wire_bytes, 146u);
}

TEST(HubHop, OneFrameReachesOnlyItsAddressee) {
  constexpr int kPorts = 5;
  Simulator sim;
  Network net(sim);
  Hub& hub = net.add_hub("H");
  std::vector<Host*> hosts;
  std::vector<int> received(kPorts, 0);
  for (int i = 0; i < kPorts; ++i) {
    const std::string n = std::to_string(i);
    Host& h = net.add_host("S" + n);
    net.add_host_interface(
        h, "eth0", mbps(10),
        Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)));
    net.add_port(hub, "p" + n, mbps(10));
    net.connect(h, "eth0", hub, "p" + n);
    h.udp().bind(9, [&received, i](const Ipv4Packet&) { ++received[i]; });
    hosts.push_back(&h);
  }
  ASSERT_TRUE(hosts[0]->udp().send(hosts[1]->ip(), 9, 5555, {}, 100));
  sim.run_all();
  constexpr std::uint64_t kWireOctets = 146;
  EXPECT_EQ(received, (std::vector<int>{0, 1, 0, 0, 0}));
  const Nic* addressee = hosts[1]->find_interface("eth0");
  EXPECT_EQ(addressee->counters().if_in_octets, kWireOctets);
  EXPECT_EQ(addressee->filtered_octets(), 0u);
  // The hub repeats nothing back to the sender.
  EXPECT_EQ(hosts[0]->find_interface("eth0")->filtered_octets(), 0u);
  for (int i = 2; i < kPorts; ++i) {
    const Nic* other = hosts[i]->find_interface("eth0");
    EXPECT_EQ(other->filtered_octets(), kWireOctets) << i;
    EXPECT_EQ(other->counters().if_in_octets, 0u) << i;
  }
}

TEST_F(TwoHostFixture, UnpooledFrameIsFreedWithoutTouchingThePool) {
  int received = 0;
  b->udp().bind(1234, [&](const Ipv4Packet& p) {
    ++received;
    EXPECT_EQ(p.udp.payload.size(), 32u);
  });
  EthernetFrame frame;
  frame.src = a->find_interface("eth0")->mac();
  frame.dst = b->find_interface("eth0")->mac();
  frame.ip.src = a->ip();
  frame.ip.dst = b->ip();
  frame.ip.udp.dst_port = 1234;
  frame.ip.udp.payload = Bytes(32, 0xab);
  ASSERT_TRUE(a->find_interface("eth0")->transmit(make_frame(frame)));
  sim.run_all();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(sim.buffer_pool().stats().releases, 0u);
}

TEST_F(TwoHostFixture, EphemeralPortsSkipBoundPorts) {
  const std::uint16_t p1 = a->udp().allocate_ephemeral_port();
  a->udp().bind(p1, [](const Ipv4Packet&) {});
  const std::uint16_t p2 = a->udp().allocate_ephemeral_port();
  EXPECT_NE(p1, p2);
  EXPECT_GE(p1, 49152);
  EXPECT_GE(p2, 49152);
}

TEST(LinkRules, DoubleConnectThrows) {
  Simulator sim;
  Network net(sim);
  Host& a = net.add_host("A");
  Host& b = net.add_host("B");
  Host& c = net.add_host("C");
  net.add_host_interface(a, "eth0", mbps(10), Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(b, "eth0", mbps(10), Ipv4Address::parse("10.0.0.2"));
  net.add_host_interface(c, "eth0", mbps(10), Ipv4Address::parse("10.0.0.3"));
  net.connect(a, "eth0", b, "eth0");
  EXPECT_THROW(net.connect(a, "eth0", c, "eth0"), std::invalid_argument);
}

TEST(LinkRules, LossOutsideUnitIntervalThrows) {
  Simulator sim;
  Network net(sim);
  Host& a = net.add_host("A");
  Host& b = net.add_host("B");
  net.add_host_interface(a, "eth0", mbps(10), Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(b, "eth0", mbps(10), Ipv4Address::parse("10.0.0.2"));
  Link& link = net.connect(a, "eth0", b, "eth0");
  for (const double bad : {std::nan(""), -0.1, 1.5,
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(link.set_loss(bad), std::invalid_argument);
    EXPECT_EQ(link.loss(), 0.0);
  }
  link.set_loss(1.0);
  EXPECT_EQ(link.loss(), 1.0);
  link.set_loss(0.0);
  EXPECT_EQ(link.loss(), 0.0);
}

TEST(LinkRules, UnknownInterfaceThrows) {
  Simulator sim;
  Network net(sim);
  Host& a = net.add_host("A");
  Host& b = net.add_host("B");
  net.add_host_interface(a, "eth0", mbps(10), Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(b, "eth0", mbps(10), Ipv4Address::parse("10.0.0.2"));
  EXPECT_THROW(net.connect(a, "nope", b, "eth0"), std::invalid_argument);
}

TEST(NicFiltering, NonPromiscuousDropsForeignFramesUncounted) {
  Simulator sim;
  Network net(sim);
  Host& a = net.add_host("A");
  Host& b = net.add_host("B");
  net.add_host_interface(a, "eth0", mbps(10), Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(b, "eth0", mbps(10), Ipv4Address::parse("10.0.0.2"));
  net.connect(a, "eth0", b, "eth0");

  // Hand-craft a frame addressed to a MAC that is NOT B's.
  EthernetFrame frame;
  frame.src = a.find_interface("eth0")->mac();
  frame.dst = MacAddress::from_id(0xdead);
  frame.ip.src = a.ip();
  frame.ip.dst = Ipv4Address::parse("10.0.0.9");
  frame.ip.udp.padding = 100;
  a.find_interface("eth0")->transmit(make_frame(frame));
  sim.run_all();

  const Nic* nb = b.find_interface("eth0");
  EXPECT_EQ(nb->counters().if_in_octets, 0u);  // hardware filter
  EXPECT_GT(nb->filtered_octets(), 0u);        // but it crossed the wire
}

TEST(NicFiltering, BroadcastAccepted) {
  Simulator sim;
  Network net(sim);
  Host& a = net.add_host("A");
  Host& b = net.add_host("B");
  net.add_host_interface(a, "eth0", mbps(10), Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(b, "eth0", mbps(10), Ipv4Address::parse("10.0.0.2"));
  net.connect(a, "eth0", b, "eth0");

  EthernetFrame frame;
  frame.src = a.find_interface("eth0")->mac();
  frame.dst = MacAddress::broadcast();
  frame.ip.src = a.ip();
  frame.ip.dst = b.ip();
  frame.ip.udp.padding = 50;
  a.find_interface("eth0")->transmit(make_frame(frame));
  sim.run_all();
  EXPECT_GT(b.find_interface("eth0")->counters().if_in_octets, 0u);
}

TEST(Counters, Counter32WrapsAt32Bits) {
  InterfaceCounters counters;
  counters.if_in_octets = 0xffffff00u;
  counters.count_in(0x200);
  EXPECT_EQ(counters.if_in_octets, 0x100u);  // wrapped
  EXPECT_EQ(counters.if_in_ucast_pkts, 1u);
}

}  // namespace
}  // namespace netqos::sim
