// Client side of the query wire protocol.
//
// Sends window/health/subscription requests from any simulated host to a
// QueryServer, matches responses by request id, and surfaces pushed event
// frames through a callback — the library under both the netqosctl CLI
// and the query_load bench. Like the SNMP client, everything is
// callback-driven on the discrete-event loop and every frame crosses the
// simulated network.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/sim_time.h"
#include "netsim/host.h"
#include "netsim/simulator.h"
#include "query/proto.h"

namespace netqos::query {

struct QueryClientConfig {
  std::uint16_t server_port = sim::kQueryPort;
  /// A request with no response by then completes with kTimeout. Queries
  /// are read-only, so there is no retry machinery: callers re-issue.
  SimDuration timeout = 2 * kSecond;
};

/// Client-side transport counters (plain values: the client is a tool,
/// not part of the monitored system).
struct QueryClientStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;  ///< kError frames matched to a request
  std::uint64_t events_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

struct QueryResult {
  enum class Status { kOk, kTimeout, kError, kSendFailed };

  Status status = Status::kTimeout;
  std::string error;  ///< server-reported reason (kError only)
  Message message;    ///< decoded response (kOk only)
  SimDuration rtt = 0;

  bool ok() const { return status == Status::kOk; }
};

class QueryClient {
 public:
  /// Takes the result by rvalue reference, so a callback that takes it
  /// by value moves it once.
  using Callback = std::function<void(QueryResult&&)>;
  using EventCallback = std::function<void(const Event&)>;

  /// Binds an ephemeral port on `host`'s UDP stack; frames go to
  /// `server` on config.server_port.
  QueryClient(sim::Simulator& sim, sim::Host& host, sim::Ipv4Address server,
              QueryClientConfig config = {});
  ~QueryClient();
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  void window(const WindowRequest& request, Callback callback);
  void health(Callback callback);
  /// Fetches the monitor's registered measurement modules + telemetry.
  void modules(Callback callback);
  /// Registers this client's port for event pushes; the ack (or refusal)
  /// arrives through `callback`.
  void subscribe(Callback callback);
  void unsubscribe(Callback callback);

  /// Invoked for every pushed kEvent frame after a successful subscribe.
  void set_event_callback(EventCallback callback) {
    event_callback_ = std::move(callback);
  }

  const QueryClientStats& stats() const { return stats_; }
  std::size_t outstanding() const { return pending_.size(); }

 private:
  struct Pending {
    Callback callback;
    sim::EventId timeout_event = 0;
    SimTime sent = 0;
  };

  /// Stamps `message`'s header with a fresh request id and the clock,
  /// then sends it.
  void send_request(Message& message, Callback callback);
  void on_timeout(std::uint32_t request_id);
  void on_packet(const sim::Ipv4Packet& packet);

  sim::Simulator& sim_;
  sim::Host& host_;
  sim::Ipv4Address server_;
  QueryClientConfig config_;
  std::uint16_t src_port_;
  std::uint32_t next_request_id_ = 1;
  std::unordered_map<std::uint32_t, Pending> pending_;
  EventCallback event_callback_;
  QueryClientStats stats_;
};

}  // namespace netqos::query
