// Wall-clock stack sampler for the benchmark's per-layer ledger.
//
// A CLOCK_MONOTONIC timer raises SIGPROF at a fixed rate and the handler
// records the interrupted call stack; the monitor's own code is not
// touched. The stacks are written out after the run and attributed to
// source files (and so to the monitor's layers) by run.py, which turns
// sample shares into a per-layer split of measured wall time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

namespace wallbench {

/// Records call stacks of the (single) benchmark thread while running.
/// At most one sampler may be running at a time.
class StackSampler {
 public:
  /// Room for `capacity` samples; later samples are lost.
  explicit StackSampler(std::size_t capacity);
  ~StackSampler();
  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  /// Arms the timer: one sample every `period_us` microseconds of wall
  /// time. Resumable: samples accumulate across start/stop pairs.
  void start(long period_us);
  void stop();

  /// Samples recorded; once `capacity` is reached, further ones are lost.
  std::size_t samples() const;
  /// Wall time spent inside the sampler's own signal handler.
  double seconds() const;

  /// One line per distinct stack: "<count> <pc> <pc> ...", innermost
  /// frame first, as hex offsets into the benchmark executable (the form
  /// addr2line takes). Return addresses are moved back one byte so they
  /// name the call instruction. Frames outside the executable (libc,
  /// libstdc++) are left out; a stack with none left prints its count
  /// alone.
  void write(std::ostream& out) const;

 private:
  std::vector<std::uintptr_t> frames_;  ///< capacity * frames per stack
  std::vector<std::uint8_t> depth_;     ///< frames per sample
  void* timer_ = nullptr;               ///< timer_t, when created
  bool running_ = false;
};

}  // namespace wallbench
