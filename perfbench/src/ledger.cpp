#include "ledger.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSim: return "sim";
    case Layer::kNet: return "net";
    case Layer::kProtocol: return "protocol";
    case Layer::kCore: return "core";
    case Layer::kServer: return "server";
    case Layer::kClient: return "client";
    case Layer::kStorage: return "storage";
    case Layer::kVerify: return "verify";
    case Layer::kWorkload: return "workload";
    case Layer::kRt: return "rt";
    case Layer::kCount: break;
  }
  return "?";
}

void LedgerTotals::merge(const LedgerTotals& o) {
  for (std::size_t i = 0; i < kLayers; ++i) {
    self_ticks[i] += o.self_ticks[i];
    spans[i] += o.spans[i];
  }
  for (std::size_t i = 0; i < kProbes; ++i) {
    probe_ticks[i] += o.probe_ticks[i];
    probe_calls[i] += o.probe_calls[i];
  }
  root_ticks += o.root_ticks;
}

std::uint64_t LedgerTotals::self_sum() const {
  std::uint64_t s = 0;
  for (std::uint64_t t : self_ticks) s += t;
  return s;
}

void SpanStack::enter(Layer layer, std::uint64_t now) {
  if (depth_ == kMaxDepth) {
    std::fprintf(stderr, "ledger: span stack overflow\n");
    std::abort();
  }
  frames_[depth_++] = Frame{layer, now, 0};
}

std::uint64_t SpanStack::exit(std::uint64_t now) {
  if (depth_ == 0) {
    std::fprintf(stderr, "ledger: span closed with none open\n");
    std::abort();
  }
  const Frame f = frames_[--depth_];
  // Ticks are monotonic per core; a migrated thread can in principle read a
  // slightly earlier value, which must not wrap around.
  const std::uint64_t dur = now > f.start ? now - f.start : 0;
  const std::uint64_t self = dur > f.covered ? dur - f.covered : 0;
  const auto li = static_cast<std::size_t>(f.layer);
  totals_.self_ticks[li] += self;
  totals_.spans[li] += 1;
  if (depth_ > 0) {
    frames_[depth_ - 1].covered += dur;
  } else {
    totals_.root_ticks += dur;
  }
  return dur;
}

std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

namespace {

std::mutex& process_mu() {
  static std::mutex mu;
  return mu;
}

LedgerTotals& process_totals() {
  static LedgerTotals totals;
  return totals;
}

// Owns a thread's stack and hands its totals to the process ledger when the
// thread ends.
struct ThreadLedger {
  SpanStack stack;
  ~ThreadLedger() {
    const std::lock_guard<std::mutex> lock(process_mu());
    process_totals().merge(stack.totals());
  }
};

}  // namespace

SpanStack& thread_stack() {
  thread_local ThreadLedger tl;
  return tl.stack;
}

LedgerTotals ledger_take() {
  SpanStack& mine = thread_stack();
  const std::lock_guard<std::mutex> lock(process_mu());
  LedgerTotals out = process_totals();
  out.merge(mine.totals());
  process_totals() = LedgerTotals{};
  mine.totals() = LedgerTotals{};
  return out;
}

}  // namespace perfbench
