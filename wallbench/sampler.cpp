#include "sampler.h"

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <stdexcept>

namespace {

constexpr std::size_t kMaxFrames = 48;

/// Storage of the running sampler, reachable from the signal handler.
struct SampleSlots {
  std::uintptr_t* frames = nullptr;
  std::uint8_t* depth = nullptr;
  std::size_t capacity = 0;
  std::atomic<std::size_t> count{0};
  std::atomic<std::int64_t> handler_ns{0};  ///< wall time spent sampling
};
SampleSlots g_slots;

std::uintptr_t interrupted_pc(const ucontext_t* context) {
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(context->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(context->uc_mcontext.pc);
#else
  (void)context;
  return 0;
#endif
}

std::int64_t monotonic_ns() {
  timespec now = {};
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<std::int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

void on_sample(int, siginfo_t*, void* context) {
  const std::size_t slot = g_slots.count.load(std::memory_order_relaxed);
  if (slot >= g_slots.capacity) return;  // full: later samples are lost
  const int saved_errno = errno;
  const std::int64_t entered = monotonic_ns();
  void* raw[kMaxFrames + 8];
  const int n = backtrace(raw, static_cast<int>(kMaxFrames + 8));
  const std::uintptr_t pc =
      interrupted_pc(static_cast<const ucontext_t*>(context));
  // The unwound stack starts with this handler and the signal
  // trampoline; the interrupted frame follows them.
  int first = 0;
  while (first < n && reinterpret_cast<std::uintptr_t>(raw[first]) != pc) {
    ++first;
  }
  std::uintptr_t* out = g_slots.frames + slot * kMaxFrames;
  std::size_t depth = 0;
  if (first == n) {
    out[depth++] = pc;  // unwinder lost the signal frame: keep the leaf
  } else {
    for (int i = first; i < n && depth < kMaxFrames; ++i) {
      out[depth++] = reinterpret_cast<std::uintptr_t>(raw[i]);
    }
  }
  g_slots.depth[slot] = static_cast<std::uint8_t>(depth);
  g_slots.count.store(slot + 1, std::memory_order_relaxed);
  g_slots.handler_ns.fetch_add(monotonic_ns() - entered,
                               std::memory_order_relaxed);
  errno = saved_errno;
}

/// Load bias and executable segments of the main program.
struct ExeImage {
  std::uintptr_t bias = 0;
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> text;

  bool contains(std::uintptr_t pc) const {
    for (const auto& [lo, hi] : text) {
      if (pc >= lo && pc < hi) return true;
    }
    return false;
  }
};

ExeImage main_image() {
  ExeImage image;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* data) -> int {
        auto* out = static_cast<ExeImage*>(data);
        out->bias = info->dlpi_addr;
        for (int i = 0; i < info->dlpi_phnum; ++i) {
          const auto& phdr = info->dlpi_phdr[i];
          if (phdr.p_type == PT_LOAD && (phdr.p_flags & PF_X) != 0) {
            const std::uintptr_t lo = info->dlpi_addr + phdr.p_vaddr;
            out->text.emplace_back(lo, lo + phdr.p_memsz);
          }
        }
        return 1;  // the main program is listed first
      },
      &image);
  return image;
}

}  // namespace

namespace wallbench {

StackSampler::StackSampler(std::size_t capacity)
    : frames_(capacity * kMaxFrames), depth_(capacity) {
  if (g_slots.frames != nullptr) {
    throw std::logic_error("only one StackSampler at a time");
  }
  // The first backtrace() loads the unwinder, which allocates: do it
  // here, never in the handler.
  void* warm[4];
  backtrace(warm, 4);

  g_slots.frames = frames_.data();
  g_slots.depth = depth_.data();
  g_slots.capacity = capacity;
  g_slots.count = 0;
  g_slots.handler_ns = 0;

  struct sigaction action = {};
  action.sa_sigaction = &on_sample;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
  sigevent event = {};
  event.sigev_notify = SIGEV_SIGNAL;
  event.sigev_signo = SIGPROF;
  timer_t timer;
  if (timer_create(CLOCK_MONOTONIC, &event, &timer) != 0) {
    throw std::runtime_error("timer_create failed");
  }
  timer_ = timer;
}

StackSampler::~StackSampler() {
  stop();
  timer_delete(static_cast<timer_t>(timer_));
  signal(SIGPROF, SIG_IGN);
  g_slots.frames = nullptr;
  g_slots.depth = nullptr;
  g_slots.capacity = 0;
}

void StackSampler::start(long period_us) {
  itimerspec spec = {};
  spec.it_interval.tv_sec = period_us / 1'000'000;
  spec.it_interval.tv_nsec = (period_us % 1'000'000) * 1000;
  spec.it_value = spec.it_interval;
  timer_settime(static_cast<timer_t>(timer_), 0, &spec, nullptr);
  running_ = true;
}

void StackSampler::stop() {
  if (!running_) return;
  itimerspec off = {};
  timer_settime(static_cast<timer_t>(timer_), 0, &off, nullptr);
  running_ = false;
}

std::size_t StackSampler::samples() const { return g_slots.count; }
double StackSampler::seconds() const { return g_slots.handler_ns * 1e-9; }

void StackSampler::write(std::ostream& out) const {
  const ExeImage image = main_image();
  std::map<std::vector<std::uintptr_t>, std::size_t> stacks;
  const std::size_t n = g_slots.count;
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<std::uintptr_t> stack;
    for (std::size_t f = 0; f < depth_[s]; ++f) {
      const std::uintptr_t pc = frames_[s * kMaxFrames + f];
      // Frame 0 is the interrupted instruction; the rest are returns.
      if (image.contains(pc)) {
        stack.push_back(pc - image.bias - (f > 0 ? 1 : 0));
      }
    }
    ++stacks[stack];
  }
  out << std::hex;
  for (const auto& [stack, count] : stacks) {
    out << std::dec << count << std::hex;
    for (const std::uintptr_t pc : stack) out << " " << pc;
    out << "\n";
  }
  out << std::dec;
}

}  // namespace wallbench
