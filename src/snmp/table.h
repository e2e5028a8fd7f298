// Whole-table batched GETBULK collection.
//
// The monitor's per-interface GET path costs one request per agent per
// round with 6 varbinds per interface — fine for hosts, quadratic pain
// for a 48-port switch. TablePoller collects entire MIB-II table columns
// with a handful of GETBULK sweeps instead: the first request also
// fetches sysUpTime.0 and ifNumber.0 as non-repeaters, so one round trip
// usually yields the complete table for small agents, and large tables
// finish in ceil(rows * columns / budget) requests.
//
// The manager picks max-repetitions (RFC 3416 §4.2.3): each sweep asks
// for the rows the furthest-behind column still lacks, counted against
// the known row count (this collection's ifNumber once its first
// response is in, otherwise the previous collection's) and capped at
// budget / columns. For a table whose size has not changed, every
// column then ends on its last row.
//
// Overshoot is the fallback, not the normal case: a first collection
// (no row count yet) asks for budget / columns rows, a table that shrank
// is swept past its end (one that grew costs one extra request), and an
// agent may truncate at its varbind cap or overshoot anyway. Responses
// are column-major and a repeater past its own column returns the next
// column's rows, so every varbind is routed by column-root prefix and
// deduplicated against that column's cursor: overshoot rows are either
// fresh same-snapshot data (accepted) or repeats (skipped), and
// completeness rests on the response's own ifNumber.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "netsim/address.h"
#include "snmp/client.h"
#include "snmp/oid.h"
#include "snmp/value.h"

namespace netqos::snmp {

struct TableResult {
  bool ok = false;
  std::string error;

  std::uint64_t uptime_ticks = 0;  ///< sysUpTime.0 (hundredths of seconds)
  std::uint32_t if_number = 0;     ///< agent-reported row count

  /// One row per ifIndex (rows[i] is ifIndex i+1). `cells[c]` holds the
  /// value of the c-th requested column; `seen` bit c says whether the
  /// agent actually returned that cell.
  struct Row {
    std::vector<SnmpValue> cells;
    std::uint32_t seen = 0;

    bool has(std::size_t column) const {
      return (seen >> column & 1u) != 0;
    }
  };
  std::vector<Row> rows;

  int requests = 0;  ///< GETBULK round trips consumed
  SimDuration rtt = 0;  ///< the last request's round trip (SnmpResult::rtt)

  /// True when every requested column of row `i` arrived.
  bool complete_row(std::size_t i, std::size_t columns) const {
    return rows[i].seen + 1 == (1u << columns);
  }
};

/// Collects a set of table columns from one agent via chained GETBULKs.
/// One collection at a time per instance; the instance must outlive the
/// collection (the monitor keeps one per polled agent).
class TablePoller {
 public:
  using Callback = std::function<void(TableResult)>;

  /// `columns` are column roots (e.g. ifEntry.10); at most 32.
  /// `varbind_budget` bounds the repeater varbinds requested per GETBULK
  /// and must stay under the agents' response cap.
  TablePoller(SnmpClient& client, sim::Ipv4Address agent,
              std::string community, std::vector<Oid> columns,
              std::size_t varbind_budget = 120);

  /// Starts a collection; `callback` fires exactly once.
  void collect(Callback callback);

  bool busy() const { return busy_; }

 private:
  void step();
  void on_response(SnmpResult result);
  void finish(TableResult result);
  void fail(const std::string& why);

  SnmpClient& client_;
  sim::Ipv4Address agent_;
  std::string community_;
  std::vector<Oid> columns_;
  std::size_t varbind_budget_;

  bool busy_ = false;
  bool first_request_ = false;
  Callback callback_;
  TableResult result_;
  std::vector<Oid> cursors_;     ///< last accepted OID per column
  std::vector<bool> done_;       ///< column fully collected
  std::vector<std::uint32_t> row_cursor_;  ///< last accepted ifIndex
  /// ifNumber of the latest collection to report one (already capped);
  /// 0 while unknown. Sizes max-repetitions in step().
  std::uint32_t known_rows_ = 0;
};

}  // namespace netqos::snmp
