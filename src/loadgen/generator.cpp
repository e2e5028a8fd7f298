#include "loadgen/generator.h"

#include <limits>
#include <stdexcept>

namespace netqos::load {

LoadGenerator::LoadGenerator(sim::Simulator& sim, sim::Host& source,
                             sim::Ipv4Address destination,
                             RateProfile profile, GeneratorConfig config)
    : sim_(sim),
      source_(source),
      destination_(destination),
      profile_(std::move(profile)),
      config_(config) {
  if (config_.payload_bytes == 0 ||
      config_.payload_bytes > sim::kMaxUdpPayloadBytes) {
    throw std::invalid_argument("payload must be 1..1472 bytes");
  }
  // Datagrams are paced payload/rate seconds apart: a nonzero rate must
  // make that gap at least 1 ns (or the clock never advances) and small
  // enough for the clock to hold.
  const double min_gap = to_seconds(kNanosecond);
  const double max_gap =
      to_seconds(std::numeric_limits<SimTime>::max() / 2);
  for (const RateStep& step : profile_.steps()) {
    if (step.rate == 0.0) continue;
    const double gap = static_cast<double>(config_.payload_bytes) / step.rate;
    if (!(gap >= min_gap && gap <= max_gap)) {
      throw std::invalid_argument("load rate cannot be paced");
    }
  }
  src_port_ = source_.udp().allocate_ephemeral_port();
}

void LoadGenerator::start() {
  if (running_) return;
  running_ = true;
  arm_next();
}

void LoadGenerator::stop() {
  running_ = false;
  if (next_event_ != 0) {
    sim_.cancel(next_event_);
    next_event_ = 0;
  }
}

void LoadGenerator::arm_next() {
  const SimTime now = sim_.now();
  const BytesPerSecond rate = profile_.rate_at(now);

  if (rate <= 0.0) {
    // Silent until the profile changes.
    const SimTime change = profile_.next_change_after(now);
    if (change < 0) {
      running_ = false;
      return;
    }
    next_event_ = sim_.schedule_at(change, [this] {
      next_event_ = 0;
      if (running_) tick();
    });
    return;
  }

  // Evenly pace datagrams: one payload every payload/rate seconds, but
  // never beyond the next profile change (the new rate takes over there).
  const double gap_seconds =
      static_cast<double>(config_.payload_bytes) / rate;
  SimTime next = now + from_seconds(gap_seconds);
  const SimTime change = profile_.next_change_after(now);
  bool send_on_fire = true;
  if (change >= 0 && change < next) {
    next = change;
    send_on_fire = false;  // rate boundary, not a send slot
  }
  next_event_ = sim_.schedule_at(next, [this, send_on_fire] {
    next_event_ = 0;
    if (!running_) return;
    if (send_on_fire) tick();
    else arm_next();
  });
}

void LoadGenerator::tick() {
  if (source_.udp().send(destination_, sim::kDiscardPort, src_port_, {},
                         config_.payload_bytes)) {
    ++datagrams_sent_;
    payload_bytes_sent_ += config_.payload_bytes;
  } else {
    ++send_failures_;
  }
  arm_next();
}

}  // namespace netqos::load
