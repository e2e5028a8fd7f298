#include "snmp/table.h"

#include <algorithm>
#include <stdexcept>

namespace netqos::snmp {

namespace {

/// ifNumber arrives off the wire; a hostile or corrupted agent can claim
/// any 32-bit row count. Cap it well above any real fabric (the 10k
/// reference fabric included) before sizing the result table from it.
constexpr std::int64_t kMaxTableRows = 1 << 20;

}  // namespace

TablePoller::TablePoller(SnmpClient& client, sim::Ipv4Address agent,
                         std::string community, std::vector<Oid> columns,
                         std::size_t varbind_budget)
    : client_(client),
      agent_(agent),
      community_(std::move(community)),
      columns_(std::move(columns)),
      varbind_budget_(varbind_budget) {
  if (columns_.empty() || columns_.size() > 32) {
    throw std::invalid_argument("TablePoller needs 1..32 columns");
  }
}

void TablePoller::collect(Callback callback) {
  if (busy_) throw std::logic_error("TablePoller collection in progress");
  busy_ = true;
  first_request_ = true;
  callback_ = std::move(callback);
  result_ = TableResult{};
  cursors_ = columns_;
  done_.assign(columns_.size(), false);
  row_cursor_.assign(columns_.size(), 0);
  step();
}

void TablePoller::step() {
  std::vector<Oid> oids;
  std::int32_t non_repeaters = 0;
  if (first_request_) {
    // Piggy-back the scalars on the first sweep: GETNEXT on the parent
    // yields sysUpTime.0 / ifNumber.0 without a separate GET.
    oids.push_back(mib2::kSysUpTime);
    oids.push_back(mib2::kIfNumber);
    non_repeaters = 2;
  }
  std::size_t active = 0;
  std::uint32_t furthest_behind = known_rows_;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (done_[c]) continue;
    ++active;
    furthest_behind = std::min(furthest_behind, row_cursor_[c]);
    oids.push_back(cursors_[c]);
  }
  std::size_t reps =
      std::max<std::size_t>(1, varbind_budget_ / std::max<std::size_t>(
                                                     1, active));
  // Ask for no more rows than the table is known to have left: a column
  // swept past its last row only repeats the next column's rows.
  if (known_rows_ != 0) {
    reps = std::clamp<std::size_t>(known_rows_ - furthest_behind, 1, reps);
  }
  ++result_.requests;
  client_.get_bulk(agent_, community_, std::move(oids), non_repeaters,
                   static_cast<std::int32_t>(reps),
                   [this](SnmpResult r) { on_response(std::move(r)); });
}

void TablePoller::on_response(SnmpResult response) {
  result_.rtt = response.rtt;
  if (!response.ok()) {
    if (response.status == SnmpResult::Status::kErrorResponse) {
      fail(std::string("agent error: ") +
           error_status_name(response.error_status));
    } else {
      fail("transport failure (timeout or send error)");
    }
    return;
  }

  std::size_t idx = 0;
  bool progress = false;
  if (first_request_) {
    first_request_ = false;
    if (response.varbinds.size() < 2) {
      fail("first response missing scalar varbinds");
      return;
    }
    const auto* ticks = std::get_if<TimeTicks>(&response.varbinds[0].value);
    if (ticks == nullptr ||
        !response.varbinds[0].oid.starts_with(mib2::kSysUpTime)) {
      fail("agent did not report sysUpTime");
      return;
    }
    result_.uptime_ticks = ticks->value;
    const auto* count = std::get_if<std::int64_t>(&response.varbinds[1].value);
    if (count == nullptr || *count < 0 || *count > kMaxTableRows ||
        !response.varbinds[1].oid.starts_with(mib2::kIfNumber)) {
      fail("agent did not report a sane ifNumber");
      return;
    }
    result_.if_number = static_cast<std::uint32_t>(*count);
    known_rows_ = result_.if_number;
    result_.rows.assign(result_.if_number, TableResult::Row{});
    for (auto& row : result_.rows) {
      row.cells.assign(columns_.size(), SnmpValue{Null{}});
    }
    if (result_.if_number == 0) done_.assign(columns_.size(), true);
    idx = 2;
    progress = true;
  }

  for (; idx < response.varbinds.size(); ++idx) {
    VarBind& vb = response.varbinds[idx];
    // Column subtrees are disjoint, so at most one root matches. done_
    // columns swallow their overshoot repeats silently.
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (!vb.oid.starts_with(columns_[c])) continue;
      if (done_[c]) break;
      if (const auto* exception =
              std::get_if<VarBindException>(&vb.value)) {
        // endOfMibView past the table, or noSuchObject on an unsupported
        // column: either way this column yields nothing more.
        (void)exception;
        done_[c] = true;
        progress = true;
        break;
      }
      if (vb.oid <= cursors_[c]) break;  // overshoot repeat of known data
      if (vb.oid.size() != columns_[c].size() + 1) break;  // not a cell
      const std::uint32_t row = vb.oid.arcs().back();
      cursors_[c] = vb.oid;
      progress = true;
      if (row >= 1 && row <= result_.if_number) {
        TableResult::Row& slot = result_.rows[row - 1];
        slot.cells[c] = std::move(vb.value);
        slot.seen |= 1u << c;
        row_cursor_[c] = row;
      }
      // Rows are contiguous 1..ifNumber (MIB-II ifTable), so reaching
      // the last index completes the column without another round trip.
      if (row >= result_.if_number) done_[c] = true;
      break;
    }
  }

  if (!progress) {
    fail("agent response advanced no column");
    return;
  }
  if (std::all_of(done_.begin(), done_.end(), [](bool d) { return d; })) {
    result_.ok = true;
    finish(std::move(result_));
    return;
  }
  step();
}

void TablePoller::finish(TableResult result) {
  busy_ = false;
  Callback callback = std::move(callback_);
  callback_ = nullptr;
  callback(std::move(result));
}

void TablePoller::fail(const std::string& why) {
  result_.ok = false;
  result_.error = why;
  finish(std::move(result_));
}

}  // namespace netqos::snmp
