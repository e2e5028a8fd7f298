#include "query/engine.h"

#include <algorithm>
#include <string_view>

#include "history/store.h"

namespace netqos::query {
namespace {

bool selected(const std::string& key, const std::string& selector) {
  return selector.empty() || key.find(selector) != std::string::npos;
}

WindowRow row_from_summary(std::string key,
                           const hist::WindowSummary& summary) {
  WindowRow row;
  row.key = std::move(key);
  row.samples = static_cast<std::uint32_t>(summary.samples);
  row.min = summary.min;
  row.mean = summary.mean;
  row.max = summary.max;
  row.p95 = summary.p95;
  row.resolution = summary.resolution;
  row.complete = summary.complete;
  return row;
}

/// Folds one member series summary into a host aggregate. Mean is
/// count-weighted; p95 is the max of member p95s (conservative: the
/// true cross-series quantile needs the raw samples); resolution is the
/// coarsest member; complete only when every member is.
void merge_into(WindowRow& into, const hist::WindowSummary& summary) {
  if (summary.samples == 0) return;
  if (into.samples == 0) {
    into.min = summary.min;
    into.max = summary.max;
    into.mean = summary.mean;
    into.p95 = summary.p95;
    into.resolution = summary.resolution;
    into.complete = summary.complete;
    into.samples = static_cast<std::uint32_t>(summary.samples);
    return;
  }
  const double total =
      static_cast<double>(into.samples) + static_cast<double>(summary.samples);
  into.mean = (into.mean * static_cast<double>(into.samples) +
               summary.mean * static_cast<double>(summary.samples)) /
              total;
  into.min = std::min(into.min, summary.min);
  into.max = std::max(into.max, summary.max);
  into.p95 = std::max(into.p95, summary.p95);
  into.resolution = std::max(into.resolution, summary.resolution);
  into.complete = into.complete && summary.complete;
  into.samples += static_cast<std::uint32_t>(summary.samples);
}

constexpr std::string_view kInterfacePrefix = "if:";

}  // namespace

WindowResponse QueryEngine::window(const WindowRequest& request,
                                   SimTime now) const {
  WindowResponse response;
  response.server_now = now;
  response.end = request.end == 0 ? now : request.end;
  response.begin = request.begin < 0 ? response.end + request.begin
                                     : request.begin;
  if (response.begin < 0) response.begin = 0;
  if (response.end < response.begin) response.end = response.begin;

  switch (request.group) {
    case GroupBy::kInterface:
      interface_rows(request.selector, response.begin, response.end,
                     response.rows);
      break;
    case GroupBy::kPath:
      path_rows(request.selector, response.begin, response.end,
                response.rows);
      break;
    case GroupBy::kHost:
      host_rows(request.selector, response.begin, response.end,
                response.rows);
      break;
  }
  std::sort(response.rows.begin(), response.rows.end(),
            [](const WindowRow& a, const WindowRow& b) { return a.key < b.key; });
  return response;
}

void QueryEngine::interface_rows(const std::string& selector, SimTime begin,
                                 SimTime end,
                                 std::vector<WindowRow>& rows) const {
  const hist::HistoryStore& store = monitor_.stats_db().history();
  store.visit_prefix(kInterfacePrefix, [&](const std::string& key,
                                           const hist::Series& series) {
    if (!selected(key, selector)) return;
    const hist::WindowSummary summary = store.query(series, begin, end);
    if (summary.samples == 0) return;
    rows.push_back(row_from_summary(key, summary));
  });
}

void QueryEngine::path_rows(const std::string& selector, SimTime begin,
                            SimTime end, std::vector<WindowRow>& rows) const {
  using Metric = mon::NetworkMonitor::PathMetric;
  const hist::HistoryStore& store = monitor_.history();
  for (std::size_t path = 0; path < monitor_.monitored_paths().size();
       ++path) {
    for (const Metric metric : {Metric::kUsed, Metric::kAvailable}) {
      const std::string& key = monitor_.path_series_key(path, metric);
      if (!selected(key, selector)) continue;
      // Until this path's first sample the handle is null and the keyed
      // query answers, as it always did (a pair registered twice may
      // already have the series).
      const hist::Series* series = monitor_.path_series(path, metric);
      const hist::WindowSummary summary =
          series != nullptr ? store.query(*series, begin, end)
                            : store.query(key, begin, end);
      if (summary.samples == 0) continue;
      rows.push_back(row_from_summary(key, summary));
    }
  }
}

void QueryEngine::host_rows(const std::string& selector, SimTime begin,
                            SimTime end, std::vector<WindowRow>& rows) const {
  const hist::HistoryStore& store = monitor_.stats_db().history();
  // "if:<node>/<ifDescr>": the node is the host grouping key. The store
  // visits keys in order, so one node's interfaces form an adjacent run
  // (they share the prefix "if:<node>/"); each run merges into one row.
  WindowRow host;
  std::string_view node;
  bool in_run = false;
  bool node_selected = false;
  const auto finish_run = [&] {
    if (host.samples != 0) rows.push_back(std::move(host));
  };
  store.visit_prefix(kInterfacePrefix, [&](const std::string& key,
                                           const hist::Series& series) {
    const std::size_t name_begin = kInterfacePrefix.size();
    const std::size_t slash = key.find('/', name_begin);
    if (slash == std::string::npos) return;
    const std::string_view key_node =
        std::string_view(key).substr(name_begin, slash - name_begin);
    if (!in_run || key_node != node) {
      finish_run();
      in_run = true;
      node = key_node;
      host = WindowRow{};
      host.key.assign("host:").append(node);
      node_selected = selected(host.key, selector);
    }
    if (node_selected) merge_into(host, store.query(series, begin, end));
  });
  finish_run();
}

HealthResponse QueryEngine::health(SimTime now) const {
  HealthResponse response;
  response.server_now = now;

  for (const mon::PollScheduler::AgentState& agent :
       monitor_.scheduler().agents()) {
    AgentHealthRow row;
    row.node = agent.node;
    row.health = static_cast<std::uint8_t>(agent.health);
    row.consecutive_failures =
        static_cast<std::uint32_t>(agent.consecutive_failures);
    row.polls = agent.polls;
    row.failures = agent.failures;
    row.quarantines = agent.quarantines;
    row.next_due = agent.next_due;
    response.agents.push_back(std::move(row));
  }

  const std::vector<mon::PathKey>& paths = monitor_.monitored_paths();
  for (std::size_t path = 0; path < paths.size(); ++path) {
    const auto& [from, to] = paths[path];
    const mon::PathUsage usage = monitor_.current_usage(path);
    PathHealthRow row;
    row.from = from;
    row.to = to;
    row.used = usage.used_at_bottleneck;
    row.available = usage.available;
    row.freshness = static_cast<std::uint8_t>(usage.freshness);
    row.max_sample_age = usage.max_sample_age;
    row.complete = usage.complete;
    row.link_down = usage.link_down;
    row.violated = violations_ != nullptr && violations_->in_violation(from, to);
    row.warning = predictive_ != nullptr && predictive_->warning_active(from, to);
    response.paths.push_back(std::move(row));
  }

  if (probe_status_) {
    response.probes = probe_status_();
  }
  return response;
}

ModulesResponse QueryEngine::modules(SimTime now) const {
  ModulesResponse response;
  response.server_now = now;
  for (const mon::ModuleStatus& status : monitor_.modules().statuses()) {
    ModuleStatusRow row;
    row.name = status.name;
    row.samples = status.samples;
    row.errors = status.errors;
    row.footprint_bytes = status.footprint_bytes;
    for (const mon::ModuleNote& note : status.notes) {
      row.notes.emplace_back(note.key, note.value);
    }
    response.modules.push_back(std::move(row));
  }
  return response;
}

}  // namespace netqos::query
