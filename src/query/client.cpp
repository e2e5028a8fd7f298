#include "query/client.h"

#include <utility>

namespace netqos::query {

QueryClient::QueryClient(sim::Simulator& sim, sim::Host& host,
                         sim::Ipv4Address server, QueryClientConfig config)
    : sim_(sim), host_(host), server_(server), config_(config) {
  src_port_ = host_.udp().allocate_ephemeral_port();
  host_.udp().bind(src_port_, [this](const sim::Ipv4Packet& packet) {
    on_packet(packet);
  });
}

QueryClient::~QueryClient() { host_.udp().unbind(src_port_); }

void QueryClient::window(const WindowRequest& request, Callback callback) {
  Message message;
  message.header.type = MessageType::kWindowRequest;
  message.window_request = request;
  send_request(message, std::move(callback));
}

void QueryClient::health(Callback callback) {
  Message message;
  message.header.type = MessageType::kHealthRequest;
  send_request(message, std::move(callback));
}

void QueryClient::modules(Callback callback) {
  Message message;
  message.header.type = MessageType::kModulesRequest;
  send_request(message, std::move(callback));
}

void QueryClient::subscribe(Callback callback) {
  Message message;
  message.header.type = MessageType::kSubscribe;
  send_request(message, std::move(callback));
}

void QueryClient::unsubscribe(Callback callback) {
  Message message;
  message.header.type = MessageType::kUnsubscribe;
  send_request(message, std::move(callback));
}

void QueryClient::send_request(Message& message, Callback callback) {
  const std::uint32_t request_id = next_request_id_++;
  message.header.request_id = request_id;
  message.header.sent_at = sim_.now();

  Bytes wire = encode_message(message, sim_.buffer_pool().acquire());
  const std::size_t size = wire.size();
  if (!host_.udp().send(server_, config_.server_port, src_port_,
                        std::move(wire))) {
    QueryResult result;
    result.status = QueryResult::Status::kSendFailed;
    if (callback) callback(std::move(result));
    return;
  }
  stats_.requests_sent++;
  stats_.bytes_sent += size;

  Pending pending;
  pending.callback = std::move(callback);
  pending.sent = sim_.now();
  pending.timeout_event = sim_.schedule_after(
      config_.timeout, [this, request_id] { on_timeout(request_id); });
  pending_.emplace(request_id, std::move(pending));
}

void QueryClient::on_timeout(std::uint32_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  stats_.timeouts++;
  QueryResult result;
  result.status = QueryResult::Status::kTimeout;
  if (pending.callback) pending.callback(std::move(result));
}

void QueryClient::on_packet(const sim::Ipv4Packet& packet) {
  stats_.bytes_received += packet.udp.payload.size();
  // Decoded straight into the result the callback receives.
  QueryResult result;
  Message& message = result.message;
  try {
    decode_message(packet.udp.payload, message);
  } catch (const std::exception&) {
    // A malformed frame matches no request; the timeout will fire.
    return;
  }

  if (message.header.type == MessageType::kEvent) {
    stats_.events_received++;
    if (event_callback_) event_callback_(message.event);
    return;
  }

  auto it = pending_.find(message.header.request_id);
  if (it == pending_.end()) return;  // late response after timeout
  Pending pending = std::move(it->second);
  pending_.erase(it);
  sim_.cancel(pending.timeout_event);
  stats_.responses++;

  result.rtt = sim_.now() - pending.sent;
  if (message.header.type == MessageType::kError) {
    stats_.errors++;
    result.status = QueryResult::Status::kError;
    result.error = std::move(message.error);
    message = Message{};  // the message is for kOk only
  } else {
    result.status = QueryResult::Status::kOk;
  }
  if (pending.callback) pending.callback(std::move(result));
}

}  // namespace netqos::query
