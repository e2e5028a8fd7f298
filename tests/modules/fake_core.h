// Minimal ModuleCore for driving modules and a ModuleHost without a
// simulator: empty topology/plan, fixed intervals, and a recorder of
// every emission a module routes back through the core.
#pragma once

#include <string>
#include <vector>

#include "monitor/module.h"

namespace netqos::mon {

class FakeCore : public ModuleCore {
 public:
  FakeCore()
      : plan_(PollPlan::build(topo_)), calculator_(topo_, plan_) {}

  const topo::NetworkTopology& topology() const override { return topo_; }
  const PollPlan& poll_plan() const override { return plan_; }
  const StatsDb& samples() const override { return db_; }
  const BandwidthCalculator& calculator() const override {
    return calculator_;
  }
  const std::vector<WatchedPath>& watched_paths() const override {
    return watched_;
  }
  SimDuration poll_interval() const override { return 2 * kSecond; }
  PathUsage evaluate_path(std::size_t path, SimTime now) const override {
    return calculator_.path_usage(*watched_.at(path).path, db_, now,
                                  6 * kSecond);
  }
  const std::string& station() const override { return station_; }

  void emit_path_sample(std::size_t path, SimTime time,
                        const PathUsage& usage) override {
    emitted_paths.push_back({watched_.at(path).key, time, usage});
  }
  void emit_connection_sample(std::size_t connection, SimTime time,
                              BytesPerSecond used) override {
    emitted_connections.push_back({connection, time, used});
  }
  void observe_path_age(SimDuration age) override {
    observed_ages.push_back(age);
  }

  struct EmittedPath {
    PathKey key;
    SimTime time;
    PathUsage usage;
  };
  struct EmittedConnection {
    std::size_t connection;
    SimTime time;
    BytesPerSecond used;
  };
  std::vector<EmittedPath> emitted_paths;
  std::vector<EmittedConnection> emitted_connections;
  std::vector<SimDuration> observed_ages;

 private:
  topo::NetworkTopology topo_;
  PollPlan plan_;
  BandwidthCalculator calculator_;
  StatsDb db_;
  std::vector<WatchedPath> watched_;
  std::string station_ = "test";
};

}  // namespace netqos::mon
