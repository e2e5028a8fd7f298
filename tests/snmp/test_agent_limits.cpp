// Agent resource guards and remaining odd paths.
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "netsim/network.h"
#include "netsim/simulator.h"
#include "snmp/agent.h"
#include "snmp/client.h"
#include "snmp/mib2.h"
#include "snmp/walker.h"
#include "spec/parser.h"
#include "spec/testbed.h"

namespace netqos::snmp {
namespace {

class LimitsFixture : public ::testing::Test {
 protected:
  LimitsFixture() : net(sim) {
    manager = &net.add_host("manager");
    target = &net.add_host("target");
    net.add_host_interface(*manager, "eth0", mbps(100),
                           sim::Ipv4Address::parse("10.0.0.1"));
    net.add_host_interface(*target, "eth0", mbps(100),
                           sim::Ipv4Address::parse("10.0.0.2"));
    net.connect(*manager, "eth0", *target, "eth0");

    AgentConfig config;
    config.hiccup_probability = 0.0;
    config.max_response_varbinds = 8;
    agent = std::make_unique<SnmpAgent>(sim, target->udp(), config);
    register_system_group(agent->mib(), sim, "target");
    // 30 scalars under a private subtree so bulk walks have material.
    for (std::uint32_t i = 1; i <= 30; ++i) {
      agent->mib().register_constant(Oid({1, 3, 6, 1, 4, 1, 7, i}),
                                     static_cast<std::int64_t>(i));
    }
    client = std::make_unique<SnmpClient>(sim, manager->udp());
  }

  /// Single GETNEXTs, one request per step, from `oid`: at most `steps`
  /// varbinds, ending after an endOfMibView.
  std::vector<VarBind> get_next_chain(Oid oid, std::size_t steps) {
    std::vector<VarBind> chain;
    while (chain.size() < steps) {
      std::optional<SnmpResult> got;
      client->get_next(target->ip(), "public", {oid},
                       [&](SnmpResult r) { got = std::move(r); });
      sim.run_until(sim.now() + seconds(1));
      if (!got.has_value() || !got->ok() || got->varbinds.size() != 1) {
        ADD_FAILURE() << "GETNEXT " << oid.to_string() << " failed";
        break;
      }
      chain.push_back(got->varbinds[0]);
      if (chain.back().value == SnmpValue(VarBindException::kEndOfMibView)) {
        break;
      }
      oid = chain.back().oid;
    }
    return chain;
  }

  sim::Simulator sim;
  sim::Network net;
  sim::Host* manager = nullptr;
  sim::Host* target = nullptr;
  std::unique_ptr<SnmpAgent> agent;
  std::unique_ptr<SnmpClient> client;
};

TEST_F(LimitsFixture, GetBulkTruncatedAtResponseLimit) {
  std::optional<SnmpResult> got;
  client->get_bulk(target->ip(), "public", {Oid({1, 3, 6, 1, 4, 1, 7})}, 0,
                   25, [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value() && got->ok());
  // The agent caps at 8 varbinds instead of the requested 25.
  EXPECT_EQ(got->varbinds.size(), 8u);
}

TEST_F(LimitsFixture, GetBulkMatchesChainOfGetNexts) {
  // A frozen sysUpTime lets requests sent at different times compare
  // exactly.
  agent->mib().register_constant(mib2::kSysUpTime.child(0), TimeTicks{4242});
  const Oid system{1, 3, 6, 1, 2, 1, 1};
  const Oid vendor{1, 3, 6, 1, 4, 1, 7};  // the end of the MIB
  struct Bulk {
    std::vector<Oid> oids;
    std::int32_t non_repeaters;
    std::int32_t max_repetitions;
    std::size_t chained;  ///< varbinds the GETNEXT chains return
  };
  const Bulk requests[] = {
      // Non-repeaters, one past the last object; a column crossing from
      // the system group into the vendor subtree; a column running off
      // the end of the MIB. 2 + 4 + 2 varbinds: exactly the cap.
      {{mib2::kSysDescr, vendor.child(30), system, vendor.child(29)}, 2, 4, 8},
      // 1 + 6 + 6 varbinds, truncated at the cap of 8.
      {{mib2::kSysName.child(0), system, vendor}, 1, 6, 13},
  };
  for (const Bulk& request : requests) {
    std::vector<VarBind> expected;
    for (std::size_t i = 0; i < request.oids.size(); ++i) {
      const bool repeats =
          i >= static_cast<std::size_t>(request.non_repeaters);
      const std::vector<VarBind> chain = get_next_chain(
          request.oids[i],
          repeats ? static_cast<std::size_t>(request.max_repetitions) : 1);
      expected.insert(expected.end(), chain.begin(), chain.end());
    }
    ASSERT_EQ(expected.size(), request.chained);
    if (expected.size() > agent->config().max_response_varbinds) {
      expected.resize(agent->config().max_response_varbinds);
    }

    std::optional<SnmpResult> got;
    client->get_bulk(target->ip(), "public", request.oids,
                     request.non_repeaters, request.max_repetitions,
                     [&](SnmpResult r) { got = std::move(r); });
    sim.run_until(sim.now() + seconds(1));
    ASSERT_TRUE(got.has_value() && got->ok());
    EXPECT_EQ(got->varbinds, expected);
  }
}

TEST_F(LimitsFixture, GetBulkNegativeFieldsTolerated) {
  std::optional<SnmpResult> got;
  client->get_bulk(target->ip(), "public", {Oid({1, 3, 6, 1, 4, 1, 7})},
                   -3, -7, [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value() && got->ok());
  EXPECT_TRUE(got->varbinds.empty());  // zero repetitions requested
}

TEST_F(LimitsFixture, GetBulkOnV1AgentAnswersGenErr) {
  // Our agent rejects GETBULK inside a v1 message (it is v2c-only).
  ClientConfig config;
  config.version = SnmpVersion::kV1;
  SnmpClient v1(sim, manager->udp(), config);
  std::optional<SnmpResult> got;
  v1.get_bulk(target->ip(), "public", {Oid({1, 3, 6, 1, 4, 1, 7})}, 0, 5,
              [&](SnmpResult r) { got = std::move(r); });
  sim.run_until(seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, SnmpResult::Status::kErrorResponse);
  EXPECT_EQ(got->error_status, ErrorStatus::kGenErr);
}

TEST_F(LimitsFixture, WalkOverV1ClientUsesGetNext) {
  ClientConfig config;
  config.version = SnmpVersion::kV1;
  SnmpClient v1(sim, manager->udp(), config);
  SubtreeWalker walker(v1);
  std::optional<WalkResult> got;
  walker.walk(target->ip(), "public", Oid({1, 3, 6, 1, 4, 1, 7}),
              [&](WalkResult r) { got = std::move(r); });
  sim.run_until(seconds(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_EQ(got->varbinds.size(), 30u);
}

TEST_F(LimitsFixture, WalkPastEndOfMibOverV1EndsCleanly) {
  ClientConfig config;
  config.version = SnmpVersion::kV1;
  SnmpClient v1(sim, manager->udp(), config);
  SubtreeWalker walker(v1);
  std::optional<WalkResult> got;
  // The private subtree is the LAST thing in the MIB: the walk must end
  // on v1's noSuchName instead of failing.
  walker.walk(target->ip(), "public", Oid({1, 3, 6, 1, 4}),
              [&](WalkResult r) { got = std::move(r); });
  sim.run_until(seconds(5));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
}

TEST(SpecFileIo, ParseSpecFileFromDisk) {
  const std::string path = "/tmp/netqos_test_spec.txt";
  {
    std::ofstream out(path);
    out << spec::lirtss_spec_text();
  }
  const spec::SpecFile file = spec::parse_spec_file(path);
  EXPECT_EQ(file.network_name, "lirtss");
  EXPECT_EQ(file.topology.nodes().size(), 11u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace netqos::snmp
