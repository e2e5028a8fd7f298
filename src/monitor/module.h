// CoMo-style measurement modules (SNIPPETS.md §1-2).
//
// The monitor core moves data and manages resources: it polls agents,
// owns the StatsDb and HistoryStore, and runs the adaptive scheduler.
// Everything that *computes a metric* — path bandwidth, QoS violation
// detection, forecasting, latency aggregation, anomaly scoring, top
// talkers — is a Module consuming the per-poll sample stream:
//
//   interface samples   one per (node, interface) rate computed from a
//                       poll response (StatsDb differencing output)
//   path samples        one per monitored path per completed round,
//                       produced by the built-in bandwidth module
//   round boundaries    produce/on_round_end bracket each poll round
//
// Modules never talk SNMP and never mutate the StatsDb; they read core
// state through ModuleCore and emit derived samples back through it (the
// core routes emissions to history storage and to the other modules).
// netqos_lint rule R5 enforces that purity for src/monitor/modules/.
//
// The host isolates failures: a module that throws loses that one
// delivery (error counter bumped), the core keeps polling and every
// other module keeps its stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "monitor/bandwidth.h"
#include "monitor/plan.h"
#include "monitor/stats_db.h"
#include "obs/metrics.h"
#include "topology/path.h"

namespace netqos::mon {

/// A monitored host pair, as given to NetworkMonitor::add_path.
using PathKey = std::pair<std::string, std::string>;

/// True when `key` joins hosts `a` and `b`, in either order: a path and
/// its reverse are one monitored path.
inline bool same_pair(const PathKey& key, const std::string& a,
                      const std::string& b) {
  return (key.first == a && key.second == b) ||
         (key.first == b && key.second == a);
}

/// One registered path as modules see it. `path` points into the core's
/// registry and stays valid for the core's lifetime. The core's hooks
/// name a path by its index in watched_paths(), which is registration
/// order.
struct WatchedPath {
  PathKey key;
  const topo::Path* path = nullptr;
};

/// Read-only core state plus emission hooks — everything a module may
/// touch. Implemented by NetworkMonitor.
class ModuleCore {
 public:
  virtual ~ModuleCore() = default;

  virtual const topo::NetworkTopology& topology() const = 0;
  virtual const PollPlan& poll_plan() const = 0;
  /// The interface-rate database, read-only: modules consume rates, the
  /// core ingests counters.
  virtual const StatsDb& samples() const = 0;
  virtual const BandwidthCalculator& calculator() const = 0;
  virtual const std::vector<WatchedPath>& watched_paths() const = 0;
  virtual SimDuration poll_interval() const = 0;
  /// Watched path `path`'s usage at `now`: the calculator's hub/switch
  /// rules and staleness bound, then trap-driven link state (a downed
  /// connection reads as zero available, with `link_down` set).
  virtual PathUsage evaluate_path(std::size_t path, SimTime now) const = 0;
  virtual const std::string& station() const = 0;

  // Emission hooks, meaningful during the produce phase. The core routes
  // a sample of watched path `path` to history storage and then to every
  // module in registration order; a connection sample goes to history
  // only.
  virtual void emit_path_sample(std::size_t path, SimTime time,
                                const PathUsage& usage) = 0;
  virtual void emit_connection_sample(std::size_t connection, SimTime time,
                                      BytesPerSecond used) = 0;
  /// Feeds the core's path-staleness histogram (one observation per path
  /// evaluation, complete or not).
  virtual void observe_path_age(SimDuration age) = 0;
};

/// One key/value line of a module's self-description (netqosctl, the
/// query server's module snapshot, netqosmon's end-of-run summary).
struct ModuleNote {
  std::string key;
  std::string value;
};

/// Host-side view of one module: identity, delivery/error counters, and
/// the module's own snapshot.
struct ModuleStatus {
  std::string name;
  std::uint64_t samples = 0;  ///< stream deliveries (interface + path)
  std::uint64_t errors = 0;   ///< deliveries lost to a thrown exception
  std::size_t footprint_bytes = 0;
  std::vector<ModuleNote> notes;
};

class ModuleHost;

/// Base class of every measurement module. All hooks default to no-ops,
/// so a module overrides exactly the stream events it consumes.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module();
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

  /// Called once at registration, before any sample delivery.
  virtual void init(ModuleCore& core) { (void)core; }

  /// Interface samples are the poll-rate hot path (every interface of
  /// every agent, every round); the host only fans them out to modules
  /// that declare interest, so a 10k-interface fabric pays nothing for
  /// path-level modules.
  virtual bool wants_interface_samples() const { return false; }
  virtual void on_interface_sample(const InterfaceKey& interface,
                                   SimTime time, const RateSample& rate) {
    (void)interface, (void)time, (void)rate;
  }

  /// One evaluated, complete path per completed round, in path
  /// registration order. Delivery order across modules is registration
  /// order (the seed pipeline's subscription order).
  virtual void on_path_sample(const PathKey& key, SimTime time,
                              const PathUsage& usage) {
    (void)key, (void)time, (void)usage;
  }

  /// Producer phase, start of round wrap-up: modules that derive samples
  /// (the bandwidth module) emit them here via the core's hooks, before
  /// any on_round_end runs.
  virtual void produce(ModuleCore& core, SimTime round_start) {
    (void)core, (void)round_start;
  }

  /// Consumer wrap-up after every producer emitted.
  virtual void on_round_end(SimTime round_start) { (void)round_start; }

  /// Monitor stop: flush buffered output / finalize aggregates.
  virtual void flush() {}

  /// Bytes of state the module retains — the quantity the tier-2 soak
  /// asserts flat under the 10k-interface fabric. 0 = stateless.
  virtual std::size_t footprint_bytes() const { return 0; }

  /// Self-description lines for query/CLI visibility.
  virtual std::vector<ModuleNote> notes() const { return {}; }

 protected:
  /// Counts an out-of-band sample (e.g. a latency probe echo that does
  /// not flow through the host's dispatch) in this module's telemetry.
  void count_external_sample();

 private:
  friend class ModuleHost;
  std::string name_;
  ModuleHost* host_ = nullptr;
};

/// Adapter keeping the legacy NetworkMonitor::add_sample_callback API:
/// each callback becomes an anonymous consumer module, so legacy
/// subscribers and real modules share one ordered delivery list.
class CallbackModule final : public Module {
 public:
  using Callback =
      std::function<void(const PathKey&, SimTime, const PathUsage&)>;

  CallbackModule(std::string name, Callback callback)
      : Module(std::move(name)), callback_(std::move(callback)) {}

  void on_path_sample(const PathKey& key, SimTime time,
                      const PathUsage& usage) override {
    callback_(key, time, usage);
  }

 private:
  Callback callback_;
};

/// Ordered module registry + dispatcher. Owns registered modules (add)
/// or references externally owned ones (attach); keeps per-module
/// sample/error counters and a footprint gauge in the core's metrics
/// registry ({module=..., station=...} labels).
class ModuleHost {
 public:
  ModuleHost(ModuleCore& core, obs::MetricsRegistry& metrics,
             std::string station);
  ~ModuleHost();
  ModuleHost(const ModuleHost&) = delete;
  ModuleHost& operator=(const ModuleHost&) = delete;

  /// Registers an owning module at the end of the delivery order and
  /// calls its init. Names must be unique per host; a duplicate gets a
  /// "#2"-style suffix.
  Module& add(std::unique_ptr<Module> module);
  /// Registers a module owned elsewhere (detectors on the caller's
  /// stack). The module detaches itself on destruction.
  Module& attach(Module& module);
  /// Removes a module from delivery. Returns false when not registered.
  bool detach(Module& module);

  void dispatch_interface_sample(const InterfaceKey& interface, SimTime time,
                                 const RateSample& rate);
  /// True when at least one registered module consumes interface
  /// samples — the hot path's cheap pre-check.
  bool has_interface_consumers() const { return interface_consumers_ > 0; }

  void dispatch_path_sample(const PathKey& key, SimTime time,
                            const PathUsage& usage);

  /// Round wrap-up: every module's produce (registration order), then
  /// every module's on_round_end, then footprint gauges refresh.
  void run_round(SimTime round_start);

  /// Monitor stop: every module's flush, registration order.
  void flush();

  std::size_t size() const { return entries_.size(); }
  /// Registered module by name; nullptr when absent.
  Module* find(const std::string& name) const;
  std::vector<ModuleStatus> statuses() const;
  /// Sum of every module's error counter.
  std::uint64_t total_errors() const;

 private:
  friend class Module;

  struct Entry {
    Module* module = nullptr;
    std::unique_ptr<Module> owned;
    /// wants_interface_samples() captured at registration: detach runs
    /// from Module's destructor, where the virtual no longer dispatches
    /// to the derived class.
    bool interface_consumer = false;
    obs::Counter* samples = nullptr;
    obs::Counter* errors = nullptr;
    obs::Gauge* footprint = nullptr;
  };

  Entry& register_module(Module& module, std::unique_ptr<Module> owned);
  void count_sample(Module& module);
  /// Runs `fn` under the isolation contract: an exception is charged to
  /// the module's error counter and logged, never propagated.
  template <typename Fn>
  void guarded(const Entry& entry, const char* hook, Fn&& fn);

  ModuleCore& core_;
  obs::MetricsRegistry& metrics_;
  std::string station_;
  std::vector<Entry> entries_;
  int interface_consumers_ = 0;
};

}  // namespace netqos::mon
