// Tracing hooks of the untraced binary: tracing is off and costs nothing.
#include "trace_hooks.hpp"

namespace perfbench::trace {

bool enabled() { return false; }
void begin_phase() {}
PhaseLedger end_phase() { return {}; }
WorkloadSpan::WorkloadSpan() = default;
WorkloadSpan::~WorkloadSpan() = default;

}  // namespace perfbench::trace
