#include "netsim/trace.h"

#include <iterator>
#include <sstream>

#include "netsim/nic.h"
#include "netsim/node.h"

namespace netqos::sim {

void FrameTracer::attach(Link& link, std::string label) {
  links_.push_back(&link);
  link.set_tap([this, label = std::move(label)](
                   SimTime when, const Nic& from, const Frame& frame) {
    record(label, when, from, frame);
  });
}

FrameTracer::Filter FrameTracer::port_filter(std::uint16_t port) {
  return [port](const TraceRecord& r) {
    return r.src_port == port || r.dst_port == port;
  };
}

void FrameTracer::record(const std::string& label, SimTime when,
                         const Nic& from, const Frame& frame) {
  ++total_seen_;
  TraceRecord rec;
  rec.time = when;
  rec.link = label;
  rec.from = from.owner().name() + "." + from.name();
  rec.src_mac = frame->src;
  rec.dst_mac = frame->dst;
  rec.src_ip = frame->ip.src;
  rec.dst_ip = frame->ip.dst;
  rec.src_port = frame->ip.udp.src_port;
  rec.dst_port = frame->ip.udp.dst_port;
  rec.wire_bytes = frame->wire_size();

  if (filter_ && !filter_(rec)) return;
  // Each link folds its frames in time order, but the links fold at
  // different times, so a record can be older than the newest few.
  auto at = records_.end();
  while (at != records_.begin() && std::prev(at)->time > rec.time) --at;
  records_.insert(at, std::move(rec));
  if (records_.size() > capacity_) {
    records_.pop_front();
    ++evicted_;
  }
}

std::string FrameTracer::format(const TraceRecord& record) {
  std::ostringstream out;
  out << format_time(record.time) << " [" << record.link << "] "
      << record.from << ": " << record.src_ip.to_string() << ":"
      << record.src_port << " > " << record.dst_ip.to_string() << ":"
      << record.dst_port << " (" << record.wire_bytes << "B)";
  return out.str();
}

}  // namespace netqos::sim
