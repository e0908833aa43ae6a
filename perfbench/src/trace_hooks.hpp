// The benchmark's view of tracing. The untraced binary links notrace.cpp
// (tracing off, every call a no-op); the traced binary links wrap.cpp, which
// wraps the library's public entry points in ledger spans.
#pragma once

#include <array>
#include <cstdint>

#include "ledger.hpp"

namespace perfbench::trace {

[[nodiscard]] bool enabled();

// Clears the ledger and starts the tick-to-nanosecond calibration.
void begin_phase();

struct PhaseLedger {
  std::array<double, kLayers> self_ns{};
  std::array<double, kProbes> probe_ns{};
  std::array<std::uint64_t, kProbes> probe_calls{};
  double root_ns{0.0};
};

// Collects every thread's spans since begin_phase(), converted to ns.
PhaseLedger end_phase();

// Marks the benchmark's own op-loop code as the workload layer when the
// library calls back into it through a hook.
struct WorkloadSpan {
  WorkloadSpan();
  ~WorkloadSpan();
  WorkloadSpan(const WorkloadSpan&) = delete;
  WorkloadSpan& operator=(const WorkloadSpan&) = delete;
};

}  // namespace perfbench::trace
