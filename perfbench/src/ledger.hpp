// Per-layer cost ledger for the traced benchmark binary.
//
// A span is one call into a layer of the library: it has a layer, a start
// and an end. Spans nest on each thread as calls nest, so one stack per
// thread is enough to attribute time: when a span closes, its self time is
// its duration minus the part of that interval its child spans covered, and
// its whole duration is charged as covered time to its parent. Self times
// are summed per layer; the durations of root spans (spans with no parent
// on their thread) are summed separately, so that the sum of all self times
// must equal the sum of root durations — the identity the ledger's closure
// check rests on.
//
// Timestamps are raw ticks (rdtsc on x86-64); callers convert with a ratio
// measured against std::chrono::steady_clock over the traced phase.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

// The library's layers, named after its source directories. kRt is the
// parallel runtime (window loop, barriers, mailbox exchange of the sharded
// engine); it has no spans of its own and is the residual of worker time.
enum class Layer : std::uint8_t {
  kSim,
  kNet,
  kProtocol,
  kCore,
  kServer,
  kClient,
  kStorage,
  kVerify,
  kWorkload,
  kRt,
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

[[nodiscard]] const char* layer_name(Layer l);

// Entry points whose mean inclusive cost the ledger reports on its own.
enum class Probe : std::uint8_t { kEncode, kDecode, kLock, kCheck, kCount };
inline constexpr std::size_t kProbes = static_cast<std::size_t>(Probe::kCount);

struct LedgerTotals {
  std::array<std::uint64_t, kLayers> self_ticks{};
  std::array<std::uint64_t, kLayers> spans{};
  std::array<std::uint64_t, kProbes> probe_ticks{};
  std::array<std::uint64_t, kProbes> probe_calls{};
  std::uint64_t root_ticks{0};

  void merge(const LedgerTotals& o);
  [[nodiscard]] std::uint64_t self_sum() const;
};

// One thread's open spans. Not thread-safe: each thread owns one.
class SpanStack {
 public:
  static constexpr std::size_t kMaxDepth = 512;

  void enter(Layer layer, std::uint64_t now);
  // Closes the innermost span and returns its duration.
  std::uint64_t exit(std::uint64_t now);

  [[nodiscard]] std::size_t depth() const { return depth_; }
  // Layer of the innermost open span, or `fallback` when none is open.
  [[nodiscard]] Layer current_or(Layer fallback) const {
    return depth_ == 0 ? fallback : frames_[depth_ - 1].layer;
  }

  LedgerTotals& totals() { return totals_; }

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start;
    std::uint64_t covered;  // ticks of this span's interval spent in children
  };
  std::array<Frame, kMaxDepth> frames_{};
  std::size_t depth_{0};
  LedgerTotals totals_;
};

// ---- process-wide ledger (traced binary) ----------------------------------

[[nodiscard]] std::uint64_t ticks();
// This thread's stack. A thread's totals fold into the process ledger when
// the thread exits, so worker threads of the sharded engine are counted.
[[nodiscard]] SpanStack& thread_stack();
// Folds the calling thread's totals into the process ledger, returns the
// sum, and clears both.
LedgerTotals ledger_take();

struct Span {
  explicit Span(Layer l) { thread_stack().enter(l, ticks()); }
  ~Span() { thread_stack().exit(ticks()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

// A span that also feeds a probe's call count and inclusive ticks.
struct ProbeSpan {
  ProbeSpan(Layer l, Probe p) : probe(p) { thread_stack().enter(l, ticks()); }
  ~ProbeSpan() {
    SpanStack& st = thread_stack();
    const std::uint64_t d = st.exit(ticks());
    const auto i = static_cast<std::size_t>(probe);
    st.totals().probe_ticks[i] += d;
    st.totals().probe_calls[i] += 1;
  }
  ProbeSpan(const ProbeSpan&) = delete;
  ProbeSpan& operator=(const ProbeSpan&) = delete;
  Probe probe;
};

}  // namespace perfbench
