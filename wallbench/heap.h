// Heap allocation tallies for the benchmark binary.
//
// heap.cpp replaces the global operator new and delete (plain, array
// and nothrow forms; all allocate with malloc), so every C++ allocation
// the monitor makes is counted, and the traced run sees time
// spent allocating under heap.cpp (run.py's "alloc" layer).
#pragma once

#include <cstdint>

namespace wallbench {

struct AllocTally {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Allocations through the global operator new since process start.
AllocTally alloc_tally();

}  // namespace wallbench
