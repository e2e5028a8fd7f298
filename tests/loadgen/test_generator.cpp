#include "loadgen/generator.h"

#include <gtest/gtest.h>

#include <limits>

#include "netsim/network.h"
#include "netsim/services.h"
#include "netsim/simulator.h"

namespace netqos::load {
namespace {

class GeneratorFixture : public ::testing::Test {
 protected:
  GeneratorFixture() : net(sim) {
    src = &net.add_host("src");
    dst = &net.add_host("dst");
    net.add_host_interface(*src, "eth0", mbps(100),
                           sim::Ipv4Address::parse("10.0.0.1"));
    net.add_host_interface(*dst, "eth0", mbps(100),
                           sim::Ipv4Address::parse("10.0.0.2"));
    net.connect(*src, "eth0", *dst, "eth0");
    discard = std::make_unique<sim::DiscardService>(*dst);
  }

  sim::Simulator sim;
  sim::Network net;
  sim::Host* src = nullptr;
  sim::Host* dst = nullptr;
  std::unique_ptr<sim::DiscardService> discard;
};

TEST_F(GeneratorFixture, DeliversRequestedPayloadRate) {
  LoadGenerator gen(sim, *src, dst->ip(),
                    RateProfile::pulse(0, seconds(10),
                                       kilobytes_per_second(200)));
  gen.start();
  sim.run_until(seconds(10));
  // 200 KB/s for 10 s = 2 MB of payload.
  EXPECT_NEAR(static_cast<double>(discard->payload_bytes()), 2'000'000.0,
              10'000.0);
  EXPECT_EQ(gen.payload_bytes_sent(), discard->payload_bytes());
  EXPECT_EQ(gen.send_failures(), 0u);
}

TEST_F(GeneratorFixture, SendsToDiscardPortInMtuSizedPackets) {
  LoadGenerator gen(sim, *src, dst->ip(),
                    RateProfile::pulse(0, seconds(2),
                                       kilobytes_per_second(100)));
  gen.start();
  sim.run_until(seconds(2));
  EXPECT_EQ(gen.datagrams_sent(), discard->datagrams());
  // 200 KB over 1472-byte payloads.
  EXPECT_NEAR(static_cast<double>(gen.datagrams_sent()), 200'000.0 / 1472.0,
              2.0);
}

TEST_F(GeneratorFixture, SilentBeforeAndAfterPulse) {
  LoadGenerator gen(sim, *src, dst->ip(),
                    RateProfile::pulse(seconds(5), seconds(6),
                                       kilobytes_per_second(100)));
  gen.start();
  sim.run_until(seconds(4));
  EXPECT_EQ(gen.datagrams_sent(), 0u);
  sim.run_until(seconds(20));
  EXPECT_NEAR(static_cast<double>(gen.payload_bytes_sent()), 100'000.0,
              2'000.0);
}

TEST_F(GeneratorFixture, RateChangeTakesEffectAtBoundary) {
  RateProfile profile;
  profile.add_step(0, kilobytes_per_second(100));
  profile.add_step(seconds(5), kilobytes_per_second(400));
  profile.add_step(seconds(10), 0.0);
  LoadGenerator gen(sim, *src, dst->ip(), profile);
  gen.start();
  sim.run_until(seconds(10));
  // 100 KB/s * 5 s + 400 KB/s * 5 s = 2.5 MB.
  EXPECT_NEAR(static_cast<double>(gen.payload_bytes_sent()), 2'500'000.0,
              20'000.0);
}

TEST_F(GeneratorFixture, StopCeasesSending) {
  LoadGenerator gen(sim, *src, dst->ip(),
                    RateProfile::pulse(0, seconds(100),
                                       kilobytes_per_second(100)));
  gen.start();
  sim.run_until(seconds(2));
  gen.stop();
  const auto sent = gen.datagrams_sent();
  sim.run_until(seconds(10));
  EXPECT_EQ(gen.datagrams_sent(), sent);
}

TEST_F(GeneratorFixture, SmallerPayloadOption) {
  GeneratorConfig config;
  config.payload_bytes = 512;
  LoadGenerator gen(sim, *src, dst->ip(),
                    RateProfile::pulse(0, seconds(1),
                                       kilobytes_per_second(51)),
                    config);
  gen.start();
  sim.run_until(seconds(1));
  EXPECT_NEAR(static_cast<double>(gen.datagrams_sent()), 100.0, 2.0);
}

TEST_F(GeneratorFixture, InvalidPayloadRejected) {
  EXPECT_THROW(LoadGenerator(sim, *src, dst->ip(), RateProfile{},
                             GeneratorConfig{.payload_bytes = 0}),
               std::invalid_argument);
  EXPECT_THROW(LoadGenerator(sim, *src, dst->ip(), RateProfile{},
                             GeneratorConfig{.payload_bytes = 2000}),
               std::invalid_argument);
}

TEST_F(GeneratorFixture, UnpaceableRatesRejected) {
  // A datagram under 1 ns apart would stop the clock; one further apart
  // than the clock holds cannot be scheduled.
  for (const BytesPerSecond rate :
       {std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 1e300, 1e-300}) {
    EXPECT_THROW(LoadGenerator(sim, *src, dst->ip(),
                               RateProfile::pulse(0, seconds(1), rate)),
                 std::invalid_argument)
        << rate;
  }
  // The extremes that still pace: 1472 B every 1 ns, and a silent step.
  EXPECT_NO_THROW(LoadGenerator(sim, *src, dst->ip(),
                                RateProfile::pulse(0, seconds(1), 1472e9)));
  EXPECT_NO_THROW(LoadGenerator(sim, *src, dst->ip(),
                                RateProfile::pulse(0, seconds(1), 0.0)));
}

TEST_F(GeneratorFixture, HeaderOverheadMatchesPaperTwoPercentClaim) {
  // The paper: IP+UDP headers at 1500-byte MTU contribute ~2%. On the
  // wire (with Ethernet framing) overhead is 46/1472 = 3.1%; IP+UDP alone
  // is 28/1472 = 1.9%.
  LoadGenerator gen(sim, *src, dst->ip(),
                    RateProfile::pulse(0, seconds(5),
                                       kilobytes_per_second(200)));
  gen.start();
  sim.run_until(seconds(6));
  const auto wire = src->find_interface("eth0")->total_out_octets();
  const auto payload = gen.payload_bytes_sent();
  const double overhead =
      static_cast<double>(wire) / static_cast<double>(payload) - 1.0;
  EXPECT_NEAR(overhead, 46.0 / 1472.0, 0.002);
}

}  // namespace
}  // namespace netqos::load
