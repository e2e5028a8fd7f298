// TablePoller: whole-ifTable GETBULK collection, including truncation,
// request budgets, and the 1k-row walker regression for the reserve-
// from-ifNumber prefetch.
#include "snmp/table.h"

#include <gtest/gtest.h>

#include <optional>

#include "netsim/network.h"
#include "netsim/simulator.h"
#include "snmp/agent.h"
#include "snmp/client.h"
#include "snmp/mib2.h"
#include "snmp/walker.h"

namespace netqos::snmp {
namespace {

/// Manager + one agent serving a synthetic N-row ifTable (the usual
/// Mib2IfTable needs real NICs; here rows are registered directly).
/// Every instance is served through a provider that bumps `served`, so
/// a test can count the varbinds the agent put on the wire.
class TableFixture : public ::testing::Test {
 protected:
  void deploy(std::uint32_t rows) {
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
    serve(mib2::kSysUpTime.child(0), TimeTicks{4242});
    agent->mib().register_object(mib2::kIfNumber.child(0), [this] {
      ++served;
      return SnmpValue{static_cast<std::int64_t>(if_number)};
    });
    resize(rows);
    client = std::make_unique<SnmpClient>(sim, manager->udp());
  }

  /// Registers rows up to `rows`, or drops the rows past it, and makes
  /// ifNumber report the new count.
  void resize(std::uint32_t rows) {
    for (std::uint32_t i = rows + 1; i <= if_number; ++i) {
      for (const std::uint32_t column : kColumns) {
        agent->mib().unregister_object(mib2::if_column(column, i));
      }
    }
    for (std::uint32_t i = if_number + 1; i <= rows; ++i) {
      serve(mib2::if_column(mib2::kIfDescrColumn, i),
            "if" + std::to_string(i));
      serve(mib2::if_column(mib2::kIfInOctetsColumn, i), Counter32{i * 100});
      serve(mib2::if_column(mib2::kIfOutOctetsColumn, i),
            Counter32{i * 200});
      serve(mib2::if_column(mib2::kIfInUcastPktsColumn, i), Counter32{i * 3});
      serve(mib2::if_column(mib2::kIfOutUcastPktsColumn, i),
            Counter32{i * 4});
      serve(mib2::if_column(mib2::kIfInDiscardsColumn, i), Counter32{0});
      serve(mib2::if_column(mib2::kIfOutDiscardsColumn, i), Counter32{1});
    }
    if_number = rows;
  }

  void serve(Oid instance, SnmpValue value) {
    agent->mib().register_object(std::move(instance),
                                 [this, value = std::move(value)] {
                                   ++served;
                                   return value;
                                 });
  }

  /// Runs one collection to completion; `served` counts only its
  /// varbinds.
  TableResult collect(TablePoller& poller) {
    served = 0;
    std::optional<TableResult> got;
    poller.collect([&](TableResult r) { got = std::move(r); });
    sim.run_until(sim.now() + seconds(5));
    EXPECT_TRUE(got.has_value());
    return got.value_or(TableResult{});
  }

  static constexpr std::uint32_t kColumns[] = {
      mib2::kIfDescrColumn,       mib2::kIfInOctetsColumn,
      mib2::kIfOutOctetsColumn,   mib2::kIfInUcastPktsColumn,
      mib2::kIfOutUcastPktsColumn, mib2::kIfInDiscardsColumn,
      mib2::kIfOutDiscardsColumn};

  static std::vector<Oid> counter_columns() {
    return {mib2::kIfEntry.child(mib2::kIfInOctetsColumn),
            mib2::kIfEntry.child(mib2::kIfOutOctetsColumn),
            mib2::kIfEntry.child(mib2::kIfInUcastPktsColumn),
            mib2::kIfEntry.child(mib2::kIfOutUcastPktsColumn),
            mib2::kIfEntry.child(mib2::kIfInDiscardsColumn),
            mib2::kIfEntry.child(mib2::kIfOutDiscardsColumn)};
  }

  sim::Simulator sim;
  sim::Network net{sim};
  sim::Host* manager = nullptr;
  sim::Host* target = nullptr;
  std::unique_ptr<SnmpAgent> agent;
  std::unique_ptr<SnmpClient> client;
  std::uint32_t if_number = 0;
  std::size_t served = 0;  ///< provider calls, i.e. varbinds served
};

TEST_F(TableFixture, CollectsSmallTableInOneRequest) {
  deploy(8);
  TablePoller poller(*client, target->ip(), "public", counter_columns());
  std::optional<TableResult> got;
  poller.collect([&](TableResult r) { got = std::move(r); });
  EXPECT_TRUE(poller.busy());
  sim.run_until(seconds(2));

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok) << got->error;
  EXPECT_EQ(got->uptime_ticks, 4242u);
  EXPECT_EQ(got->if_number, 8u);
  ASSERT_EQ(got->rows.size(), 8u);
  EXPECT_EQ(got->requests, 1);
  for (std::uint32_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(got->complete_row(i - 1, 6));
    const auto& cells = got->rows[i - 1].cells;
    EXPECT_EQ(std::get<Counter32>(cells[0]).value, i * 100);
    EXPECT_EQ(std::get<Counter32>(cells[1]).value, i * 200);
    EXPECT_EQ(std::get<Counter32>(cells[5]).value, 1u);
  }
}

TEST_F(TableFixture, LargeTableChainsTruncatedResponses) {
  deploy(100);  // 600 cells, well past the agent's 128-varbind cap
  TablePoller poller(*client, target->ip(), "public", counter_columns());
  std::optional<TableResult> got;
  poller.collect([&](TableResult r) { got = std::move(r); });
  sim.run_until(seconds(5));

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok) << got->error;
  ASSERT_EQ(got->rows.size(), 100u);
  for (std::uint32_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(got->complete_row(i - 1, 6)) << "row " << i;
  }
  // 600 cells at <=120 repeater varbinds per sweep: at least 5 requests,
  // and chaining should not blow past a small multiple of that.
  EXPECT_GE(got->requests, 5);
  EXPECT_LE(got->requests, 10);
}

// A first request cannot know the row count and asks for budget /
// columns = 20 rows per column, overshooting an 8-row table. Every
// later collection asks for the rows the last ifNumber promised, so the
// agent serves the two scalars plus exactly one varbind per cell.
TEST_F(TableFixture, KnownRowCountEndsEachColumnOnItsLastRow) {
  deploy(8);
  TablePoller poller(*client, target->ip(), "public", counter_columns());
  const TableResult first = collect(poller);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_GT(served, 2u + 6 * 8);

  const TableResult second = collect(poller);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.requests, 1);
  EXPECT_EQ(served, 2u + 6 * 8);
  for (std::uint32_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(second.complete_row(i - 1, 6)) << "row " << i;
    EXPECT_EQ(std::get<Counter32>(second.rows[i - 1].cells[1]).value,
              i * 200);
  }
}

// 90 rows take sweeps of 20, 20, 20, 20 and 10 rows per column; a fixed
// 20 would run the last sweep 10 rows past the end of every column.
TEST_F(TableFixture, KnownRowCountSizesTheLastSweep) {
  deploy(90);
  TablePoller poller(*client, target->ip(), "public", counter_columns());
  ASSERT_TRUE(collect(poller).ok);

  const TableResult second = collect(poller);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.requests, 5);
  EXPECT_EQ(served, 2u + 6 * 90);
  for (std::uint32_t i = 1; i <= 90; ++i) {
    ASSERT_TRUE(second.complete_row(i - 1, 6)) << "row " << i;
  }
}

// Rows added since the last collection cost one extra request, sized by
// this collection's own ifNumber.
TEST_F(TableFixture, GrownTableCompletesWithOneExtraRequest) {
  deploy(8);
  TablePoller poller(*client, target->ip(), "public", counter_columns());
  ASSERT_TRUE(collect(poller).ok);
  resize(12);

  const TableResult grown = collect(poller);
  ASSERT_TRUE(grown.ok) << grown.error;
  EXPECT_EQ(grown.if_number, 12u);
  EXPECT_EQ(grown.requests, 2);
  EXPECT_EQ(served, 2u + 6 * 12);
  ASSERT_EQ(grown.rows.size(), 12u);
  for (std::uint32_t i = 1; i <= 12; ++i) {
    ASSERT_TRUE(grown.complete_row(i - 1, 6)) << "row " << i;
    EXPECT_EQ(std::get<Counter32>(grown.rows[i - 1].cells[0]).value,
              i * 100);
  }
}

// Rows removed since the last collection make the sweep overshoot, and
// the overshoot is routed and skipped as before.
TEST_F(TableFixture, ShrunkTableCompletesDespiteOvershoot) {
  deploy(12);
  TablePoller poller(*client, target->ip(), "public", counter_columns());
  ASSERT_TRUE(collect(poller).ok);
  resize(8);

  const TableResult shrunk = collect(poller);
  ASSERT_TRUE(shrunk.ok) << shrunk.error;
  EXPECT_EQ(shrunk.if_number, 8u);
  EXPECT_EQ(shrunk.requests, 1);
  ASSERT_EQ(shrunk.rows.size(), 8u);
  for (std::uint32_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(shrunk.complete_row(i - 1, 6)) << "row " << i;
    EXPECT_EQ(std::get<Counter32>(shrunk.rows[i - 1].cells[5]).value, 1u);
  }
}

TEST_F(TableFixture, UnreachableAgentFails) {
  deploy(4);
  TablePoller poller(*client, sim::Ipv4Address::parse("10.0.0.99"),
                     "public", counter_columns());
  std::optional<TableResult> got;
  poller.collect([&](TableResult r) { got = std::move(r); });
  sim.run_until(seconds(30));
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
  EXPECT_FALSE(poller.busy());
}

TEST_F(TableFixture, RejectsConcurrentCollections) {
  deploy(4);
  TablePoller poller(*client, target->ip(), "public", counter_columns());
  poller.collect([](TableResult) {});
  EXPECT_THROW(poller.collect([](TableResult) {}), std::logic_error);
  sim.run_until(seconds(2));
  EXPECT_FALSE(poller.busy());
}

// Satellite regression: a 1k-row ifDescr walk with the ifNumber prefetch
// reserves once and spends exactly 1 + ceil(rows / bulk) round trips.
TEST_F(TableFixture, ThousandRowWalkPrefetchesAndReserves) {
  deploy(1000);
  const std::size_t bulk = 64;
  SubtreeWalker walker(*client, bulk);
  walker.set_prefetch_if_number(true);

  const auto requests_before = client->stats().requests_sent;
  std::optional<WalkResult> got;
  walker.walk(target->ip(), "public",
              mib2::kIfEntry.child(mib2::kIfDescrColumn),
              [&](WalkResult r) { got = std::move(r); });
  sim.run_until(seconds(10));

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok) << got->error;
  ASSERT_EQ(got->varbinds.size(), 1000u);
  EXPECT_EQ(std::get<std::string>(got->varbinds[0].value), "if1");
  EXPECT_EQ(std::get<std::string>(got->varbinds[999].value), "if1000");
  // 1 ifNumber prefetch + ceil(1000/64) = 16 sweeps (the last, partial
  // sweep overshoots into the next column and ends the walk). No retries
  // on a clean link.
  const auto spent = client->stats().requests_sent - requests_before;
  EXPECT_EQ(spent, 1u + (1000 + bulk - 1) / bulk);
}

TEST_F(TableFixture, WalkWithoutPrefetchSpendsNoExtraRequest) {
  deploy(64);
  SubtreeWalker walker(*client, 64);
  const auto before = client->stats().requests_sent;
  std::optional<WalkResult> got;
  walker.walk(target->ip(), "public",
              mib2::kIfEntry.child(mib2::kIfDescrColumn),
              [&](WalkResult r) { got = std::move(r); });
  sim.run_until(seconds(5));
  ASSERT_TRUE(got.has_value() && got->ok);
  EXPECT_EQ(got->varbinds.size(), 64u);
  // One full sweep + one that walks off the column's end.
  EXPECT_EQ(client->stats().requests_sent - before, 2u);
}

}  // namespace
}  // namespace netqos::snmp
