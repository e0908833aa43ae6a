// Allocation-counting harness for the bench suite.
//
// alloc_hooks.cpp replaces the global operator new/delete with counting
// wrappers over malloc/free. It is compiled into every bench binary (see
// bench/CMakeLists.txt) but NOT into the libraries or tests, so production
// code is unaffected. Benches snapshot allocs() around their steady-state
// window and report the delta as an `allocs` entry in their JSON report
// line; bench_steady turns a non-zero delta into a hard failure, and bounds
// the live heap a registered client costs.
#pragma once

#include <cstdint>

namespace stank::bench {

// Number of global operator new calls (all variants) since process start.
[[nodiscard]] std::uint64_t allocs();
// Number of global operator delete calls (all variants) since process start.
[[nodiscard]] std::uint64_t frees();
// Bytes currently held by live operator-new blocks, each counted at the size
// the allocator gave it (malloc_usable_size: the request rounded up to the
// allocator's chunk granularity). Deterministic for a given workload, so a
// delta of it is an exact footprint figure, free of timing noise.
[[nodiscard]] std::uint64_t live_bytes();

// Debugging aid: while armed, the very next operator new call aborts the
// process so a debugger/core dump shows the allocation site. Off by default.
void trap_next_alloc(bool armed);

}  // namespace stank::bench
