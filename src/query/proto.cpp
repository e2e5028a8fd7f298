#include "query/proto.h"

#include <bit>

namespace netqos::query {
namespace {

void put_f64(ByteWriter& out, double v) {
  out.put_u64(std::bit_cast<std::uint64_t>(v));
}

void put_str(ByteWriter& out, const std::string& s) {
  if (s.size() > 0xffff) {
    throw ProtocolError("string too long to encode");
  }
  out.put_u16(static_cast<std::uint16_t>(s.size()));
  out.put_string(s);
}

void put_time(ByteWriter& out, SimTime t) {
  out.put_u64(static_cast<std::uint64_t>(t));
}

double read_f64(ByteReader& in) {
  return std::bit_cast<double>(in.get_u64());
}

std::string read_str(ByteReader& in) {
  const std::uint16_t n = in.get_u16();
  return in.get_string(n);
}

SimTime read_time(ByteReader& in) {
  return static_cast<SimTime>(in.get_u64());
}

/// Element counts are attacker-controlled wire data. Every encoded
/// element occupies at least one payload byte, so a count larger than
/// the bytes left is malformed — reject it before sizing containers
/// from it (netqos-analyze R6).
std::uint16_t read_count(ByteReader& in) {
  const std::uint16_t count = in.get_u16();
  if (count > in.remaining()) {
    throw ProtocolError("element count " + std::to_string(count) +
                        " exceeds remaining payload " +
                        std::to_string(in.remaining()));
  }
  return count;
}

void encode_body(ByteWriter& out, const Message& m) {
  switch (m.header.type) {
    case MessageType::kWindowRequest: {
      const WindowRequest& r = m.window_request;
      out.put_u8(static_cast<std::uint8_t>(r.group));
      put_str(out, r.selector);
      put_time(out, r.begin);
      put_time(out, r.end);
      break;
    }
    case MessageType::kWindowResponse: {
      const WindowResponse& r = m.window_response;
      put_time(out, r.server_now);
      put_time(out, r.begin);
      put_time(out, r.end);
      out.put_u16(static_cast<std::uint16_t>(r.rows.size()));
      for (const WindowRow& row : r.rows) {
        put_str(out, row.key);
        out.put_u32(row.samples);
        put_f64(out, row.min);
        put_f64(out, row.mean);
        put_f64(out, row.max);
        put_f64(out, row.p95);
        put_time(out, row.resolution);
        out.put_u8(row.complete ? 1 : 0);
      }
      break;
    }
    case MessageType::kHealthResponse: {
      const HealthResponse& r = m.health_response;
      put_time(out, r.server_now);
      out.put_u16(static_cast<std::uint16_t>(r.agents.size()));
      for (const AgentHealthRow& a : r.agents) {
        put_str(out, a.node);
        out.put_u8(a.health);
        out.put_u32(a.consecutive_failures);
        out.put_u64(a.polls);
        out.put_u64(a.failures);
        out.put_u64(a.quarantines);
        put_time(out, a.next_due);
      }
      out.put_u16(static_cast<std::uint16_t>(r.paths.size()));
      for (const PathHealthRow& p : r.paths) {
        put_str(out, p.from);
        put_str(out, p.to);
        put_f64(out, p.used);
        put_f64(out, p.available);
        out.put_u8(p.freshness);
        put_time(out, p.max_sample_age);
        out.put_u8(p.complete ? 1 : 0);
        out.put_u8(p.link_down ? 1 : 0);
        out.put_u8(p.violated ? 1 : 0);
        out.put_u8(p.warning ? 1 : 0);
      }
      out.put_u16(static_cast<std::uint16_t>(r.probes.size()));
      for (const ProbeStatusRow& probe : r.probes) {
        put_str(out, probe.estimator);
        put_str(out, probe.from);
        put_str(out, probe.to);
        out.put_u8(probe.convergence);
        out.put_u8(probe.running ? 1 : 0);
        out.put_u8(probe.has_estimate ? 1 : 0);
        put_f64(out, probe.available);
        out.put_u64(probe.estimates);
        out.put_u64(probe.wire_bytes);
      }
      break;
    }
    case MessageType::kEvent: {
      const Event& e = m.event;
      out.put_u8(static_cast<std::uint8_t>(e.kind));
      put_time(out, e.time);
      put_str(out, e.subject_a);
      put_str(out, e.subject_b);
      put_f64(out, e.available);
      put_f64(out, e.required);
      break;
    }
    case MessageType::kModulesResponse: {
      const ModulesResponse& r = m.modules_response;
      put_time(out, r.server_now);
      out.put_u16(static_cast<std::uint16_t>(r.modules.size()));
      for (const ModuleStatusRow& row : r.modules) {
        put_str(out, row.name);
        out.put_u64(row.samples);
        out.put_u64(row.errors);
        out.put_u64(row.footprint_bytes);
        out.put_u16(static_cast<std::uint16_t>(row.notes.size()));
        for (const auto& [key, value] : row.notes) {
          put_str(out, key);
          put_str(out, value);
        }
      }
      break;
    }
    case MessageType::kError:
      put_str(out, m.error);
      break;
    case MessageType::kHealthRequest:
    case MessageType::kSubscribe:
    case MessageType::kSubscribeAck:
    case MessageType::kUnsubscribe:
    case MessageType::kModulesRequest:
      break;  // header-only frames
  }
}

/// Decoder internals below propagate BufferUnderflow/ProtocolError to the
/// packet boundary (netqos-lint R1 propagator convention).
void decode_body(ByteReader& in, Message& m) {
  switch (m.header.type) {
    case MessageType::kWindowRequest: {
      WindowRequest& r = m.window_request;
      const std::uint8_t group = in.get_u8();
      if (group > static_cast<std::uint8_t>(GroupBy::kHost)) {
        throw ProtocolError("unknown group-by " + std::to_string(group));
      }
      r.group = static_cast<GroupBy>(group);
      r.selector = read_str(in);
      r.begin = read_time(in);
      r.end = read_time(in);
      break;
    }
    case MessageType::kWindowResponse: {
      WindowResponse& r = m.window_response;
      r.server_now = read_time(in);
      r.begin = read_time(in);
      r.end = read_time(in);
      const std::uint16_t rows = read_count(in);
      r.rows.reserve(rows);
      for (std::uint16_t i = 0; i < rows; ++i) {
        WindowRow row;
        row.key = read_str(in);
        row.samples = in.get_u32();
        row.min = read_f64(in);
        row.mean = read_f64(in);
        row.max = read_f64(in);
        row.p95 = read_f64(in);
        row.resolution = read_time(in);
        row.complete = in.get_u8() != 0;
        r.rows.push_back(std::move(row));
      }
      break;
    }
    case MessageType::kHealthResponse: {
      HealthResponse& r = m.health_response;
      r.server_now = read_time(in);
      const std::uint16_t agents = read_count(in);
      r.agents.reserve(agents);
      for (std::uint16_t i = 0; i < agents; ++i) {
        AgentHealthRow a;
        a.node = read_str(in);
        a.health = in.get_u8();
        a.consecutive_failures = in.get_u32();
        a.polls = in.get_u64();
        a.failures = in.get_u64();
        a.quarantines = in.get_u64();
        a.next_due = read_time(in);
        r.agents.push_back(std::move(a));
      }
      const std::uint16_t paths = read_count(in);
      r.paths.reserve(paths);
      for (std::uint16_t i = 0; i < paths; ++i) {
        PathHealthRow p;
        p.from = read_str(in);
        p.to = read_str(in);
        p.used = read_f64(in);
        p.available = read_f64(in);
        p.freshness = in.get_u8();
        p.max_sample_age = read_time(in);
        p.complete = in.get_u8() != 0;
        p.link_down = in.get_u8() != 0;
        p.violated = in.get_u8() != 0;
        p.warning = in.get_u8() != 0;
        r.paths.push_back(std::move(p));
      }
      const std::uint16_t probes = read_count(in);
      r.probes.reserve(probes);
      for (std::uint16_t i = 0; i < probes; ++i) {
        ProbeStatusRow probe;
        probe.estimator = read_str(in);
        probe.from = read_str(in);
        probe.to = read_str(in);
        probe.convergence = in.get_u8();
        probe.running = in.get_u8() != 0;
        probe.has_estimate = in.get_u8() != 0;
        probe.available = read_f64(in);
        probe.estimates = in.get_u64();
        probe.wire_bytes = in.get_u64();
        r.probes.push_back(std::move(probe));
      }
      break;
    }
    case MessageType::kEvent: {
      Event& e = m.event;
      const std::uint8_t kind = in.get_u8();
      if (kind > static_cast<std::uint8_t>(Event::Kind::kAgentRecovered)) {
        throw ProtocolError("unknown event kind " + std::to_string(kind));
      }
      e.kind = static_cast<Event::Kind>(kind);
      e.time = read_time(in);
      e.subject_a = read_str(in);
      e.subject_b = read_str(in);
      e.available = read_f64(in);
      e.required = read_f64(in);
      break;
    }
    case MessageType::kModulesResponse: {
      ModulesResponse& r = m.modules_response;
      r.server_now = read_time(in);
      const std::uint16_t modules = read_count(in);
      r.modules.reserve(modules);
      for (std::uint16_t i = 0; i < modules; ++i) {
        ModuleStatusRow row;
        row.name = read_str(in);
        row.samples = in.get_u64();
        row.errors = in.get_u64();
        row.footprint_bytes = in.get_u64();
        const std::uint16_t notes = read_count(in);
        row.notes.reserve(notes);
        for (std::uint16_t j = 0; j < notes; ++j) {
          std::string key = read_str(in);
          std::string value = read_str(in);
          row.notes.emplace_back(std::move(key), std::move(value));
        }
        r.modules.push_back(std::move(row));
      }
      break;
    }
    case MessageType::kError:
      m.error = read_str(in);
      break;
    case MessageType::kHealthRequest:
    case MessageType::kSubscribe:
    case MessageType::kSubscribeAck:
    case MessageType::kUnsubscribe:
    case MessageType::kModulesRequest:
      break;
  }
}

}  // namespace

const char* message_type_name(MessageType type) {
  switch (type) {
    case MessageType::kWindowRequest: return "window-request";
    case MessageType::kWindowResponse: return "window-response";
    case MessageType::kHealthRequest: return "health-request";
    case MessageType::kHealthResponse: return "health-response";
    case MessageType::kSubscribe: return "subscribe";
    case MessageType::kSubscribeAck: return "subscribe-ack";
    case MessageType::kUnsubscribe: return "unsubscribe";
    case MessageType::kEvent: return "event";
    case MessageType::kError: return "error";
    case MessageType::kModulesRequest: return "modules-request";
    case MessageType::kModulesResponse: return "modules-response";
  }
  return "?";
}

const char* group_by_name(GroupBy group) {
  switch (group) {
    case GroupBy::kInterface: return "interface";
    case GroupBy::kPath: return "path";
    case GroupBy::kHost: return "host";
  }
  return "?";
}

const char* event_kind_name(Event::Kind kind) {
  switch (kind) {
    case Event::Kind::kViolation: return "violation";
    case Event::Kind::kRecovery: return "recovery";
    case Event::Kind::kEarlyWarning: return "early-warning";
    case Event::Kind::kAllClear: return "all-clear";
    case Event::Kind::kAgentQuarantined: return "agent-quarantined";
    case Event::Kind::kAgentRecovered: return "agent-recovered";
  }
  return "?";
}

Bytes encode_message(const Message& message, Bytes reuse) {
  ByteWriter out(std::move(reuse));
  out.put_u32(0);  // length prefix, patched once the body is written
  out.put_u16(kMagic);
  out.put_u8(kProtocolVersion);
  out.put_u8(static_cast<std::uint8_t>(message.header.type));
  out.put_u32(message.header.request_id);
  out.put_u64(static_cast<std::uint64_t>(message.header.sent_at));
  encode_body(out, message);
  out.patch_u32(0, static_cast<std::uint32_t>(out.size() - 4));
  return std::move(out).take();
}

Message decode_message(std::span<const std::uint8_t> wire) {
  ByteReader in(wire);
  const std::uint32_t length = in.get_u32();
  if (length != in.remaining()) {
    throw ProtocolError("frame length " + std::to_string(length) +
                        " != payload size " + std::to_string(in.remaining()));
  }
  if (in.get_u16() != kMagic) {
    throw ProtocolError("bad magic");
  }
  const std::uint8_t version = in.get_u8();
  if (version != kProtocolVersion) {
    throw ProtocolError("unsupported version " + std::to_string(version));
  }
  Message m;
  const std::uint8_t type = in.get_u8();
  if (type < static_cast<std::uint8_t>(MessageType::kWindowRequest) ||
      type > static_cast<std::uint8_t>(MessageType::kModulesResponse)) {
    throw ProtocolError("unknown message type " + std::to_string(type));
  }
  m.header.type = static_cast<MessageType>(type);
  m.header.request_id = in.get_u32();
  m.header.sent_at = static_cast<SimTime>(in.get_u64());
  decode_body(in, m);
  if (!in.empty()) {
    throw ProtocolError("trailing bytes after body");
  }
  return m;
}

}  // namespace netqos::query
