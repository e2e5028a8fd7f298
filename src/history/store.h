// Bounded multi-resolution history store with a windowed query engine.
//
// The paper's monitor reports only the instantaneous available bandwidth
// A = min(a_1..a_n) per poll round; consumers like the DeSiDeRaTa RM
// layer need *windowed* answers ("min/mean/p95 available on path(A,B)
// over the last w seconds") and the monitor itself must not grow its
// memory with run length. The store keeps every series in a raw ring
// plus a cascade of coarser aggregate tiers (streaming downsample with
// min/mean/max per bucket); queries are answered from the finest tier
// that still covers the window, so recent windows get raw precision and
// old windows degrade gracefully instead of disappearing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "history/ring.h"
#include "obs/metrics.h"

namespace netqos::hist {

/// How much history each series keeps, per resolution. The defaults hold
/// ~34 minutes of 2 s raw polls, ~85 minutes at 10 s, and ~4.3 hours at
/// 60 s — all in a fixed ~44 KB per series.
struct RetentionPolicy {
  struct Tier {
    SimDuration width = 0;
    std::size_t capacity = 0;
  };

  std::size_t raw_capacity = 1024;
  /// Downsampled tiers, finest first; widths must be strictly ascending.
  std::vector<Tier> tiers = {{10 * kSecond, 512}, {60 * kSecond, 256}};

  /// for_span's bound on each of its three rings, in buckets: 65,536 is
  /// about 36 hours of 2 s polls and 9.4 MB per series (the rings are
  /// allocated, zero-filled, when the series is made).
  static constexpr std::size_t kMaxSpanBuckets = 65'536;

  /// Policy sized so the raw ring spans `raw_span` of samples arriving
  /// every `sample_interval`, with the default downsample cascade scaled
  /// to cover ~16x that span. Used by netqosmon --history-retention.
  /// Throws std::invalid_argument unless both are positive and the span
  /// fits kMaxSpanBuckets - 2 intervals.
  static RetentionPolicy for_span(SimDuration raw_span,
                                  SimDuration sample_interval);
};

/// Answer to a windowed query over [begin, end).
struct WindowSummary {
  std::size_t samples = 0;  ///< underlying raw samples aggregated
  std::size_t buckets = 0;  ///< buckets the answer was assembled from
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  /// Approximate 95th percentile: 32 linear bins over [min, max], the
  /// first starting at min, filled with the window's bucket means
  /// count-weighted (exact sample values on the raw tier) and read by
  /// bucket_percentile. Never below min; never above max by more than the
  /// rounding of the top bin bound.
  double p95 = 0.0;
  /// Width of the tier that answered (0 = raw resolution).
  SimDuration resolution = 0;
  /// True when the answering tier's retained history reaches back to
  /// `begin`; false means the window start predates retention and the
  /// summary covers only the surviving suffix.
  bool complete = false;
};

/// One series: a raw ring plus the downsample cascade.
class Series {
 public:
  explicit Series(const RetentionPolicy& policy);

  struct AppendOutcome {
    std::size_t merges = 0;     ///< buckets folded by downsampling
    std::size_t evictions = 0;  ///< oldest buckets pushed out
  };
  AppendOutcome add(SimTime t, double v);

  /// Summary of [begin, end) from the finest tier that covers it. A
  /// repeat of the last answer's tier and bucket range with no append
  /// in between is answered from a one-entry memo (DESIGN §6): the
  /// summary reads nothing else, so the memo is exact, and `complete`,
  /// which depends on `begin`, is recomputed on every call.
  WindowSummary query(SimTime begin, SimTime end) const;

  const RingTier& raw() const { return raw_; }
  const std::vector<RingTier>& tiers() const { return tiers_; }

  /// Copies the raw ring (oldest first) into a TimeSeries — the bridge to
  /// every consumer of the paper-figure series API. Bit-identical to the
  /// unbounded history as long as nothing has been evicted.
  void materialize_raw(TimeSeries& out) const;

  /// Total retained samples across all resolutions (for occupancy gauges).
  std::size_t bucket_count() const;
  /// Fixed preallocated bytes across all tiers.
  std::size_t footprint_bytes() const;

  std::optional<SimTime> last_time() const;

 private:
  /// Finest tier whose retention still reaches `begin` (falls back to the
  /// coarsest non-empty tier). Nullptr when the series is empty.
  const RingTier* tier_for(SimTime begin, bool* complete) const;

  /// The last summary query() computed and what it was computed from.
  /// The tier is kept by index (0 = raw, i = tiers_[i - 1]), not by
  /// address, so a moved Series never matches a stale memo. `appends`
  /// starts at 0, which no query of a non-empty series can carry.
  struct Memo {
    std::uint64_t appends = 0;
    std::size_t tier = 0;
    std::size_t first = 0;
    std::size_t last = 0;
    WindowSummary summary;
  };

  RingTier raw_;
  std::vector<RingTier> tiers_;
  std::uint64_t appends_ = 0;  ///< calls of add(), the memo's clock
  mutable Memo memo_;          ///< single-threaded, like every reader
};

/// Keyed collection of Series, all sharing one retention policy, with
/// optional telemetry. Key naming convention (helpers below):
/// "if:<node>/<ifDescr>", "path:<a>|<b>:used" / ":avail", "conn:<index>".
class HistoryStore {
 public:
  explicit HistoryStore(RetentionPolicy policy = {});

  /// Registers the store's instruments (samples, downsample merges,
  /// evictions, queries, series/occupancy gauges) in `registry`. A
  /// non-empty `store_label` becomes a {store="..."} label so several
  /// stores (per-interface vs path history) can share one registry
  /// without clobbering each other's gauges.
  void attach_metrics(obs::MetricsRegistry& registry,
                      const std::string& store_label = "");

  void append(const std::string& key, SimTime t, double v);

  /// The series under `key`, made (and counted in the series gauges) on
  /// first use. The reference stays valid for the store's lifetime, so a
  /// writer can resolve its series once and append through the handle.
  Series& series(const std::string& key);
  /// Appends to a series of this store, counted like the keyed append,
  /// without building or looking up a key.
  void append(Series& series, SimTime t, double v);

  /// Series lookup; nullptr when the key has never been appended to.
  const Series* find(std::string_view key) const;

  /// Windowed query; a summary with samples == 0 when the key is unknown.
  /// Each call counts one query.
  WindowSummary query(std::string_view key, SimTime begin,
                      SimTime end) const;
  /// Windowed query of a series visited through visit_prefix();
  /// counts one query like the keyed overload, without the lookup.
  WindowSummary query(const Series& series, SimTime begin,
                      SimTime end) const;

  /// Calls visit(key, series) for every series whose key starts with
  /// `prefix`, in key order, without copying a key. Keys sharing a longer
  /// prefix ("if:<node>/") are therefore visited as one adjacent run.
  template <typename Visit>
  void visit_prefix(std::string_view prefix, Visit&& visit) const {
    for (auto it = series_.lower_bound(prefix);
         it != series_.end() && it->first.starts_with(prefix); ++it) {
      visit(it->first, it->second);
    }
  }

  std::size_t series_count() const { return series_.size(); }

  /// Fixed bytes reserved by all series' rings. Grows only when a new
  /// *series* appears, never with samples appended — the bound the
  /// duration-invariance tests pin.
  std::size_t footprint_bytes() const;
  /// footprint_bytes() for one hypothetical series under this policy.
  std::size_t bytes_per_series() const;

  const RetentionPolicy& policy() const { return policy_; }

 private:
  RetentionPolicy policy_;
  std::map<std::string, Series, std::less<>> series_;

  obs::Counter* samples_ = nullptr;
  obs::Counter* merges_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* queries_ = nullptr;
  obs::Gauge* series_gauge_ = nullptr;
  obs::Gauge* occupancy_gauge_ = nullptr;
  obs::Gauge* footprint_gauge_ = nullptr;
};

/// Store key for a (node, ifDescr) interface rate series.
std::string interface_series_key(const std::string& node,
                                 const std::string& if_descr);
/// Store key for a path metric ("used" / "avail"); endpoint order is
/// normalized so (a,b) and (b,a) share a series.
std::string path_series_key(const std::string& from, const std::string& to,
                            const char* metric);
/// Store key for a per-connection used-bandwidth series.
std::string connection_series_key(std::size_t connection);

}  // namespace netqos::hist
