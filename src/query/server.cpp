#include "query/server.h"

#include <algorithm>
#include <stdexcept>

namespace netqos::query {
namespace {

/// Query handling is sub-poll-interval work; buckets span 100 us (same
/// LAN, idle) to 1 s (heavily queued station link).
const std::vector<double> kLatencyBounds = {
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01,   0.025,   0.05,   0.1,   0.25,   0.5,  1.0};

}  // namespace

QueryServer::QueryServer(sim::Simulator& sim, sim::Host& station,
                         QueryEngine& engine, QueryServerConfig config)
    : sim_(sim), station_(station), engine_(engine), config_(config) {
  // The engine reads the monitor const; registering instruments in the
  // monitor's registry is the one mutation the server needs, and the
  // registry hands out stable pointers, so the cast is confined to here.
  metrics_ = config_.metrics != nullptr
                 ? config_.metrics
                 : &const_cast<mon::NetworkMonitor&>(engine_.monitor())
                        .metrics();
  const obs::Labels labels = {{"server", station_.name()}};
  window_requests_ = &endpoint_counter("window");
  health_requests_ = &endpoint_counter("health");
  modules_requests_ = &endpoint_counter("modules");
  subscribes_ = &endpoint_counter("subscribe");
  unsubscribes_ = &endpoint_counter("unsubscribe");
  bad_requests_ = &metrics_->counter(
      "netqos_query_bad_requests_total",
      "Undecodable or refused query frames", labels);
  events_published_ = &metrics_->counter(
      "netqos_query_events_published_total",
      "Event frames pushed to subscribers", labels);
  bytes_received_ = &metrics_->counter(
      "netqos_query_bytes_received_total",
      "Query payload octets received on the wire", labels);
  bytes_sent_ = &metrics_->counter(
      "netqos_query_bytes_sent_total",
      "Query payload octets sent on the wire", labels);
  subscriber_gauge_ = &metrics_->gauge(
      "netqos_query_subscribers", "Active event-stream subscribers", labels);
  latency_ = &metrics_->histogram(
      "netqos_query_latency_seconds",
      "Request send (client clock) to server handling", kLatencyBounds,
      labels);

  if (!station_.udp().bind(config_.port,
                           [this](const sim::Ipv4Packet& packet) {
                             on_packet(packet);
                           })) {
    throw std::runtime_error("query server: port " +
                             std::to_string(config_.port) +
                             " already bound on " + station_.name());
  }
}

QueryServer::~QueryServer() { station_.udp().unbind(config_.port); }

obs::Counter& QueryServer::endpoint_counter(const std::string& endpoint) {
  return metrics_->counter(
      "netqos_query_requests_total", "Query requests served, by endpoint",
      {{"server", station_.name()}, {"endpoint", endpoint}});
}

void QueryServer::attach(mon::ViolationDetector& detector) {
  engine_.set_violation_detector(&detector);
  detector.add_event_callback([this](const mon::QosEvent& qos) {
    Event event;
    event.kind = qos.kind == mon::QosEvent::Kind::kViolation
                     ? Event::Kind::kViolation
                     : Event::Kind::kRecovery;
    event.time = qos.time;
    event.subject_a = qos.path.first;
    event.subject_b = qos.path.second;
    event.available = qos.available;
    event.required = qos.required;
    publish(event);
  });
}

void QueryServer::attach(mon::PredictiveDetector& detector) {
  engine_.set_predictive_detector(&detector);
  detector.add_event_callback([this](const mon::PredictiveEvent& predicted) {
    Event event;
    event.kind = predicted.kind == mon::PredictiveEvent::Kind::kEarlyWarning
                     ? Event::Kind::kEarlyWarning
                     : Event::Kind::kAllClear;
    event.time = predicted.time;
    event.subject_a = predicted.path.first;
    event.subject_b = predicted.path.second;
    event.available = predicted.available;
    event.required = predicted.required;
    publish(event);
  });
}

void QueryServer::attach_agent_events(mon::NetworkMonitor& monitor) {
  monitor.add_quarantine_callback(
      [this](const std::string& node, bool quarantined) {
        Event event;
        event.kind = quarantined ? Event::Kind::kAgentQuarantined
                                 : Event::Kind::kAgentRecovered;
        event.time = sim_.now();
        event.subject_a = node;
        publish(event);
      });
}

void QueryServer::publish(const Event& event) {
  if (subscribers_.empty()) return;
  Message message;
  message.header.type = MessageType::kEvent;
  message.header.sent_at = sim_.now();
  message.event = event;
  for (const Subscriber& subscriber : subscribers_) {
    if (send_to(subscriber.address, subscriber.port, message)) {
      events_published_->inc();
    }
  }
}

void QueryServer::on_packet(const sim::Ipv4Packet& packet) {
  bytes_received_->inc(packet.udp.payload.size());
  Message request;
  try {
    decode_message(packet.udp.payload, request);
  } catch (const std::exception& e) {
    bad_requests_->inc();
    Message error;
    error.header.type = MessageType::kError;
    error.header.sent_at = sim_.now();
    error.error = e.what();
    reply(packet, error);
    return;
  }
  handle(request, packet);
}

void QueryServer::handle(const Message& request,
                         const sim::Ipv4Packet& packet) {
  // The sender stamped its simulated clock into the frame; the delta to
  // now is the genuine upstream network latency (propagation + queuing
  // behind poll traffic on the station link).
  const SimDuration upstream = sim_.now() - request.header.sent_at;
  Message response;
  response.header.request_id = request.header.request_id;
  response.header.sent_at = sim_.now();

  switch (request.header.type) {
    case MessageType::kWindowRequest: {
      window_requests_->inc();
      latency_->observe(to_seconds(std::max<SimDuration>(upstream, 0)));
      response.header.type = MessageType::kWindowResponse;
      response.window_response =
          engine_.window(request.window_request, sim_.now());
      break;
    }
    case MessageType::kHealthRequest: {
      health_requests_->inc();
      latency_->observe(to_seconds(std::max<SimDuration>(upstream, 0)));
      response.header.type = MessageType::kHealthResponse;
      response.health_response = engine_.health(sim_.now());
      break;
    }
    case MessageType::kModulesRequest: {
      modules_requests_->inc();
      latency_->observe(to_seconds(std::max<SimDuration>(upstream, 0)));
      response.header.type = MessageType::kModulesResponse;
      response.modules_response = engine_.modules(sim_.now());
      break;
    }
    case MessageType::kSubscribe: {
      subscribes_->inc();
      const Subscriber subscriber{packet.src, packet.udp.src_port};
      const bool known =
          std::find(subscribers_.begin(), subscribers_.end(), subscriber) !=
          subscribers_.end();
      if (!known && subscribers_.size() >= config_.max_subscribers) {
        bad_requests_->inc();
        response.header.type = MessageType::kError;
        response.error = "subscriber limit reached";
        break;
      }
      if (!known) subscribers_.push_back(subscriber);
      subscriber_gauge_->set(static_cast<double>(subscribers_.size()));
      response.header.type = MessageType::kSubscribeAck;
      break;
    }
    case MessageType::kUnsubscribe: {
      unsubscribes_->inc();
      const Subscriber subscriber{packet.src, packet.udp.src_port};
      subscribers_.erase(
          std::remove(subscribers_.begin(), subscribers_.end(), subscriber),
          subscribers_.end());
      subscriber_gauge_->set(static_cast<double>(subscribers_.size()));
      response.header.type = MessageType::kSubscribeAck;
      break;
    }
    default: {
      // Response/event frames have no business arriving at the server.
      bad_requests_->inc();
      response.header.type = MessageType::kError;
      response.error = std::string("unexpected frame type ") +
                       message_type_name(request.header.type);
      break;
    }
  }
  reply(packet, response);
}

void QueryServer::reply(const sim::Ipv4Packet& request,
                        const Message& response) {
  send_to(request.src, request.udp.src_port, response);
}

bool QueryServer::send_to(sim::Ipv4Address address, std::uint16_t port,
                          const Message& message) {
  Bytes wire = encode_message(message, sim_.buffer_pool().acquire());
  const std::size_t size = wire.size();
  if (!station_.udp().send(address, port, config_.port, std::move(wire))) {
    return false;
  }
  bytes_sent_->inc(size);
  return true;
}

QueryServerStats QueryServer::stats() const {
  QueryServerStats stats;
  stats.window_requests = window_requests_->value();
  stats.health_requests = health_requests_->value();
  stats.modules_requests = modules_requests_->value();
  stats.subscribes = subscribes_->value();
  stats.unsubscribes = unsubscribes_->value();
  stats.bad_requests = bad_requests_->value();
  stats.events_published = events_published_->value();
  stats.bytes_received = bytes_received_->value();
  stats.bytes_sent = bytes_sent_->value();
  return stats;
}

}  // namespace netqos::query
