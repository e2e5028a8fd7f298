// Path bandwidth as a measurement module (paper §3.3).
//
// The built-in producer the core registers first: each round wrap-up it
// evaluates every watched path against the interface-rate database —
// hub/switch rules, staleness annotation, trap-driven link-down
// override — and emits one connection sample per touched connection and
// one path sample per complete path. The core routes those emissions to
// history storage and to every consumer module, so this module is the
// sole source of the sample stream the detectors, sinks, and observer
// modules consume.
#pragma once

#include <cstdint>
#include <vector>

#include "monitor/module.h"

namespace netqos::mon {

class BandwidthModule final : public Module {
 public:
  BandwidthModule() : Module("bandwidth") {}

  void produce(ModuleCore& core, SimTime round_start) override;

  std::vector<ModuleNote> notes() const override;

 private:
  std::uint64_t rounds_ = 0;
  std::uint64_t paths_emitted_ = 0;
  std::uint64_t paths_incomplete_ = 0;
  /// The round's distinct watched connections, kept for its capacity.
  std::vector<std::size_t> touched_;
};

}  // namespace netqos::mon
