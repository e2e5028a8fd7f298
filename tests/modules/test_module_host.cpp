// ModuleHost contract: ordered registration, ownership vs attachment,
// name dedup, interface-consumer gating, telemetry counters, and the
// registry factory behind --modules.
#include "monitor/module.h"

#include <gtest/gtest.h>

#include <sstream>

#include "fake_core.h"
#include "monitor/modules/registry.h"

namespace netqos::mon {
namespace {

/// Records every hook invocation into a shared journal, so tests can
/// assert cross-module ordering.
class Probe : public Module {
 public:
  Probe(std::string name, std::vector<std::string>& journal,
        bool interfaces = false)
      : Module(std::move(name)), journal_(journal), interfaces_(interfaces) {}

  void init(ModuleCore&) override { journal_.push_back(name() + ".init"); }
  bool wants_interface_samples() const override { return interfaces_; }
  void on_interface_sample(const InterfaceKey&, SimTime,
                           const RateSample&) override {
    journal_.push_back(name() + ".interface");
  }
  void on_path_sample(const PathKey&, SimTime, const PathUsage&) override {
    journal_.push_back(name() + ".path");
  }
  void produce(ModuleCore&, SimTime) override {
    journal_.push_back(name() + ".produce");
  }
  void on_round_end(SimTime) override {
    journal_.push_back(name() + ".round_end");
  }
  void flush() override { journal_.push_back(name() + ".flush"); }

 private:
  std::vector<std::string>& journal_;
  bool interfaces_;
};

class ModuleHostTest : public ::testing::Test {
 protected:
  FakeCore core;
  obs::MetricsRegistry metrics;
  ModuleHost host{core, metrics, "L"};
  std::vector<std::string> journal;
};

TEST_F(ModuleHostTest, DeliveryFollowsRegistrationOrder) {
  host.add(std::make_unique<Probe>("a", journal));
  host.add(std::make_unique<Probe>("b", journal));
  journal.clear();

  host.dispatch_path_sample({"S1", "N1"}, from_seconds(2.0), PathUsage{});
  host.run_round(from_seconds(2.0));
  host.flush();
  EXPECT_EQ(journal,
            (std::vector<std::string>{"a.path", "b.path", "a.produce",
                                      "b.produce", "a.round_end",
                                      "b.round_end", "a.flush", "b.flush"}));
}

TEST_F(ModuleHostTest, InterfaceSamplesOnlyReachDeclaredConsumers) {
  host.add(std::make_unique<Probe>("paths-only", journal));
  EXPECT_FALSE(host.has_interface_consumers());

  host.add(std::make_unique<Probe>("hot", journal, /*interfaces=*/true));
  EXPECT_TRUE(host.has_interface_consumers());
  journal.clear();

  host.dispatch_interface_sample({"S1", "hme0"}, from_seconds(2.0),
                                 RateSample{});
  EXPECT_EQ(journal, std::vector<std::string>{"hot.interface"});
}

TEST_F(ModuleHostTest, DuplicateNamesGetSuffixed) {
  Module& first = host.add(std::make_unique<Probe>("dup", journal));
  Module& second = host.add(std::make_unique<Probe>("dup", journal));
  EXPECT_EQ(first.name(), "dup");
  EXPECT_EQ(second.name(), "dup#2");
  EXPECT_EQ(host.find("dup"), &first);
  EXPECT_EQ(host.find("dup#2"), &second);
  EXPECT_EQ(host.find("dup#3"), nullptr);
}

TEST_F(ModuleHostTest, DoubleRegistrationThrows) {
  Probe probe("p", journal);
  host.attach(probe);
  EXPECT_THROW(host.attach(probe), std::logic_error);
}

TEST_F(ModuleHostTest, AttachedModuleDetachesOnDestruction) {
  {
    Probe probe("stack", journal, /*interfaces=*/true);
    host.attach(probe);
    EXPECT_EQ(host.size(), 1u);
    EXPECT_TRUE(host.has_interface_consumers());
  }
  EXPECT_EQ(host.size(), 0u);
  EXPECT_FALSE(host.has_interface_consumers());
  // Nothing dangles: dispatch after the module died is a no-op.
  host.dispatch_path_sample({"S1", "N1"}, from_seconds(2.0), PathUsage{});
}

TEST_F(ModuleHostTest, TelemetryCountsDeliveriesPerModule) {
  host.add(std::make_unique<Probe>("a", journal));
  host.add(std::make_unique<Probe>("hot", journal, /*interfaces=*/true));

  host.dispatch_path_sample({"S1", "N1"}, from_seconds(2.0), PathUsage{});
  host.dispatch_interface_sample({"S1", "hme0"}, from_seconds(2.0),
                                 RateSample{});
  host.dispatch_interface_sample({"S2", "hme0"}, from_seconds(2.0),
                                 RateSample{});

  const auto statuses = host.statuses();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0].name, "a");
  EXPECT_EQ(statuses[0].samples, 1u);  // path sample only
  EXPECT_EQ(statuses[1].name, "hot");
  EXPECT_EQ(statuses[1].samples, 3u);  // path + two interface samples
  EXPECT_EQ(host.total_errors(), 0u);

  // The same counters live in the metrics registry under module labels.
  std::ostringstream prom;
  metrics.render_prometheus(prom);
  EXPECT_NE(prom.str().find("netqos_module_samples_total"),
            std::string::npos);
  EXPECT_NE(prom.str().find("module=\"hot\""), std::string::npos);
  EXPECT_NE(prom.str().find("station=\"L\""), std::string::npos);
}

TEST(ModuleRegistry, ListsAndConstructsEveryModule) {
  ASSERT_FALSE(available_modules().empty());
  for (const ModuleSpec& spec : available_modules()) {
    auto module = make_module(spec.name);
    ASSERT_NE(module, nullptr) << spec.name;
    EXPECT_EQ(module->name(), spec.name);
    EXPECT_FALSE(spec.description.empty());
  }
  EXPECT_EQ(make_module("no-such-module"), nullptr);
}

TEST(ModuleRegistry, ParsesModuleLists) {
  const auto both = make_modules("ewma-anomaly,top-talkers");
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[0]->name(), "ewma-anomaly");
  EXPECT_EQ(both[1]->name(), "top-talkers");

  EXPECT_TRUE(make_modules("").empty());
  EXPECT_EQ(make_modules(",top-talkers,").size(), 1u);
  EXPECT_THROW(make_modules("ewma-anomaly,bogus"), std::invalid_argument);

  // "all" is every module, in listing order; only as the whole list.
  const auto all = make_modules("all");
  ASSERT_EQ(all.size(), available_modules().size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i]->name(), available_modules()[i].name);
  }
  EXPECT_THROW(make_modules("top-talkers,all"), std::invalid_argument);
}

}  // namespace
}  // namespace netqos::mon
