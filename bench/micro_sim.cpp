// Microbenchmarks: discrete-event core and end-to-end simulated traffic
// rates (events/sec, simulated-bytes/sec of wall time).
#include <benchmark/benchmark.h>

#include <functional>

#include "loadgen/generator.h"
#include "netsim/network.h"
#include "netsim/packet.h"
#include "netsim/services.h"
#include "netsim/simulator.h"

using namespace netqos;
using namespace netqos::sim;

namespace {

void BM_EventScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(i, [] {});
    }
    sim.run_all();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventScheduleRun)->Arg(1'000)->Arg(100'000);

void BM_EventCascade(benchmark::State& state) {
  // Self-scheduling chain: the monitor/loadgen pattern.
  for (auto _ : state) {
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < n) sim.schedule_after(1000, chain);
    };
    sim.schedule_at(0, chain);
    sim.run_all();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventCascade)->Arg(10'000);

void BM_TimeoutScheduleCancel(benchmark::State& state) {
  // Request/reply with a timeout that the reply cancels, as SnmpClient
  // and QueryClient arm one per request: every timeout is tombstoned.
  for (auto _ : state) {
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    int replies = 0;
    EventId timeout = 0;
    std::function<void()> request = [&] {
      timeout = sim.schedule_after(milliseconds(500), [] {});
      sim.schedule_after(microseconds(300), [&] {
        sim.cancel(timeout);
        if (++replies < n) request();
      });
    };
    request();
    sim.run_all();
    benchmark::DoNotOptimize(replies);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimeoutScheduleCancel)->Arg(10'000);

// Frames handed hop to hop through the event store alone. Each event's
// closure captures a Frame, a pointer and a size (inline), so this
// measures the store with a closure that owns a frame handle. Real hops
// through NICs and links are BM_UdpAcrossSwitch and
// BM_HubBroadcastOverhead.
struct FrameHops {
  Simulator& sim;
  std::int64_t remaining;
  std::uint64_t octets = 0;

  void hop(const Frame& frame, std::size_t size) {
    sim.schedule_after(microseconds(1), [this, frame, size] {
      octets += size;
      if (--remaining > 0) hop(frame, size);
    });
  }
};

void BM_FrameHop(benchmark::State& state) {
  // range(0) frames in flight at once, 10k hops in all.
  const int in_flight = static_cast<int>(state.range(0));
  constexpr std::int64_t kHops = 10'000;
  const Frame frame = make_frame(EthernetFrame{});
  for (auto _ : state) {
    Simulator sim;
    FrameHops hops{sim, kHops};
    for (int i = 0; i < in_flight; ++i) hops.hop(frame, frame->wire_size());
    sim.run_all();
    benchmark::DoNotOptimize(hops.octets);
  }
  state.SetItemsProcessed(state.iterations() * kHops);
}
BENCHMARK(BM_FrameHop)->Arg(1)->Arg(64);

void BM_UdpAcrossSwitch(benchmark::State& state) {
  // Simulated seconds of a 1 MB/s stream across a switch, per wall-second.
  Simulator sim;
  Network net(sim);
  Switch& sw = net.add_switch("sw");
  net.add_port(sw, "p1", mbps(100));
  net.add_port(sw, "p2", mbps(100));
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  net.add_host_interface(a, "eth0", mbps(100), Ipv4Address::parse("10.0.0.1"));
  net.add_host_interface(b, "eth0", mbps(100), Ipv4Address::parse("10.0.0.2"));
  net.connect(a, "eth0", sw, "p1");
  net.connect(b, "eth0", sw, "p2");
  DiscardService discard(b);
  load::RateProfile profile;
  profile.add_step(0, 1'000'000.0);
  load::LoadGenerator gen(sim, a, b.ip(), profile);
  gen.start();

  SimTime horizon = 0;
  std::uint64_t datagrams = 0;
  for (auto _ : state) {
    horizon += seconds(1);
    sim.run_until(horizon);
    datagrams = gen.datagrams_sent();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(datagrams));
  state.SetLabel("simulated seconds == iterations");
}
BENCHMARK(BM_UdpAcrossSwitch);

void BM_HubBroadcastOverhead(benchmark::State& state) {
  // Same stream but through an N-port hub: every frame is repeated to
  // every port, so event cost grows with port count.
  const int ports = static_cast<int>(state.range(0));
  Simulator sim;
  Network net(sim);
  Hub& hub = net.add_hub("hub");
  for (int i = 0; i < ports; ++i) {
    net.add_port(hub, "h" + std::to_string(i), mbps(10));
  }
  std::vector<Host*> hosts;
  for (int i = 0; i < ports; ++i) {
    Host& h = net.add_host("host" + std::to_string(i));
    net.add_host_interface(
        h, "eth0", mbps(10),
        Ipv4Address::parse("10.0.1." + std::to_string(i + 1)));
    net.connect(h, "eth0", hub, "h" + std::to_string(i));
    hosts.push_back(&h);
  }
  DiscardService discard(*hosts[1]);
  load::RateProfile profile;
  profile.add_step(0, 200'000.0);
  load::LoadGenerator gen(sim, *hosts[0], hosts[1]->ip(), profile);
  gen.start();

  SimTime horizon = 0;
  for (auto _ : state) {
    horizon += seconds(1);
    sim.run_until(horizon);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.events_executed()));
}
BENCHMARK(BM_HubBroadcastOverhead)->Arg(3)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
