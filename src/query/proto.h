// Wire protocol for the monitor's query service.
//
// CoMo splits its core (capture, storage) from a query interface that
// "allows users to elicit the system to export the results of the
// measurement performed"; this is our equivalent, carried over the
// *simulated* network so query traffic competes with SNMP polls for link
// bandwidth exactly like a real deployment. Each UDP datagram carries one
// length-prefixed frame:
//
//   [u32 length][u16 magic "NQ"][u8 version][u8 type]
//   [u32 request_id][i64 sent_at][body...]
//
// `length` counts every byte after the prefix, so a truncated datagram is
// detected before the body is touched. `sent_at` is the sender's
// simulated clock; the server folds (now - sent_at) into its
// query-latency histogram, making upstream queuing delay observable.
// Integers are big-endian, doubles are IEEE-754 bit patterns in a u64,
// strings are u16 length + bytes.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/sim_time.h"
#include "common/units.h"

namespace netqos::query {

inline constexpr std::uint16_t kMagic = 0x4E51;  // "NQ"
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Thrown by decode_message on any malformed frame (magic/version/length
/// mismatch). ByteReader underflows surface as BufferUnderflow; callers
/// must handle both at the packet boundary.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("query protocol: " + what) {}
};

enum class MessageType : std::uint8_t {
  kWindowRequest = 1,   ///< windowed aggregate over history series
  kWindowResponse = 2,
  kHealthRequest = 3,   ///< point-in-time agent/path health snapshot
  kHealthResponse = 4,
  kSubscribe = 5,       ///< register for the event stream
  kSubscribeAck = 6,
  kUnsubscribe = 7,     ///< acked with kSubscribeAck as well
  kEvent = 8,           ///< pushed to subscribers, no request id
  kError = 9,
  kModulesRequest = 10,  ///< registered measurement modules + telemetry
  kModulesResponse = 11,
};

const char* message_type_name(MessageType type);

/// How window-query rows are keyed and aggregated.
enum class GroupBy : std::uint8_t {
  kInterface = 0,  ///< one row per (node, ifDescr) rate series
  kPath = 1,       ///< one row per monitored path per metric (used/avail)
  kHost = 2,       ///< interface rows of one node merged into one row
};

const char* group_by_name(GroupBy group);

struct MessageHeader {
  MessageType type = MessageType::kError;
  std::uint32_t request_id = 0;
  SimTime sent_at = 0;
};

struct WindowRequest {
  GroupBy group = GroupBy::kPath;
  /// Substring filter on the row key; empty selects every series of the
  /// group ("S1" matches both endpoints' paths and S1's interfaces).
  std::string selector;
  /// Window [begin, end) in simulated ns. end == 0 means "server's now";
  /// begin < 0 means a trailing window of |begin| ending at end.
  SimTime begin = 0;
  SimTime end = 0;
};

struct WindowRow {
  std::string key;
  std::uint32_t samples = 0;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double p95 = 0.0;
  /// Width of the history tier that answered (0 = raw resolution).
  SimDuration resolution = 0;
  /// False when retention no longer reaches the window's begin.
  bool complete = false;
};

struct WindowResponse {
  SimTime server_now = 0;
  /// The window actually evaluated, after resolving end==0 / begin<0.
  SimTime begin = 0;
  SimTime end = 0;
  std::vector<WindowRow> rows;
};

struct AgentHealthRow {
  std::string node;
  std::uint8_t health = 0;  ///< mon::AgentHealth as an integer
  std::uint32_t consecutive_failures = 0;
  std::uint64_t polls = 0;
  std::uint64_t failures = 0;
  std::uint64_t quarantines = 0;
  /// Earliest simulated time the agent's next poll may launch.
  SimTime next_due = 0;
};

struct PathHealthRow {
  std::string from;
  std::string to;
  BytesPerSecond used = 0.0;
  BytesPerSecond available = 0.0;
  std::uint8_t freshness = 0;  ///< mon::Freshness as an integer
  SimDuration max_sample_age = 0;
  bool complete = false;
  bool link_down = false;
  bool violated = false;  ///< reactive detector state, if attached
  bool warning = false;   ///< predictive detector state, if attached
};

/// One active estimator's status (src/probe), carried in health
/// snapshots when the server has a probe-status provider wired in.
struct ProbeStatusRow {
  std::string estimator;
  std::string from;
  std::string to;
  std::uint8_t convergence = 0;  ///< probe::Convergence as an integer
  bool running = false;
  bool has_estimate = false;
  /// Latest available-bandwidth estimate (meaningful iff has_estimate).
  BytesPerSecond available = 0.0;
  std::uint64_t estimates = 0;
  /// Probe + report wire bytes injected so far (intrusiveness numerator).
  std::uint64_t wire_bytes = 0;
};

struct HealthResponse {
  SimTime server_now = 0;
  std::vector<AgentHealthRow> agents;
  std::vector<PathHealthRow> paths;
  std::vector<ProbeStatusRow> probes;
};

/// One registered measurement module: host-side telemetry plus the
/// module's own key/value self-description (mon::ModuleStatus on the
/// wire).
struct ModuleStatusRow {
  std::string name;
  std::uint64_t samples = 0;
  std::uint64_t errors = 0;
  std::uint64_t footprint_bytes = 0;
  std::vector<std::pair<std::string, std::string>> notes;
};

struct ModulesResponse {
  SimTime server_now = 0;
  std::vector<ModuleStatusRow> modules;
};

/// One pushed notification on the subscription channel.
struct Event {
  enum class Kind : std::uint8_t {
    kViolation = 0,
    kRecovery = 1,
    kEarlyWarning = 2,
    kAllClear = 3,
    kAgentQuarantined = 4,
    kAgentRecovered = 5,
  };

  Kind kind = Kind::kViolation;
  SimTime time = 0;
  /// Path endpoints for QoS events; subject_a is the agent node (and
  /// subject_b empty) for agent-health events.
  std::string subject_a;
  std::string subject_b;
  BytesPerSecond available = 0.0;
  BytesPerSecond required = 0.0;
};

const char* event_kind_name(Event::Kind kind);

/// A decoded frame: `header.type` says which payload member is meaningful.
struct Message {
  MessageHeader header;
  WindowRequest window_request;
  WindowResponse window_response;
  HealthResponse health_response;
  ModulesResponse modules_response;
  Event event;
  std::string error;
};

/// Encodes one frame (length prefix included) ready for a UDP payload
/// into `reuse`'s heap capacity (its contents are discarded; pass a
/// buffer from the simulator's BufferPool to encode without allocating).
/// A size pass over the message comes first, so the frame's exact size
/// is reserved once and no put grows the buffer.
Bytes encode_message(const Message& message, Bytes reuse = {});

/// Decodes one frame into `out`, which must be freshly constructed: rows
/// are appended to its vectors in place. Throws ProtocolError on bad
/// magic/version/length and BufferUnderflow on truncation, leaving `out`
/// partly filled.
void decode_message(std::span<const std::uint8_t> wire, Message& out);
/// The same decode into a new Message.
Message decode_message(std::span<const std::uint8_t> wire);

}  // namespace netqos::query
