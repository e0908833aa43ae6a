// ledger_selftest — checks the span self-time arithmetic of ledger.cpp on a
// synthetic span tree with explicit timestamps. Exit code 0 on success.
//
//   workload [0, 100)
//     client [10, 30)          nested child
//       protocol [15, 20)      grandchild
//     client [30, 50)          back-to-back sibling
//       client [35, 45)        same-layer child
//     storage [50, 60)         back-to-back sibling
//   net [100, 130)             second root
//
// Self times: workload 100 - 20 - 20 - 10 = 50; client (20 - 5) + (20 - 10)
// + 10 = 35; protocol 5; storage 10; net 30. Root durations 100 + 30 = 130,
// which the self times must sum to.
#include <cstdio>

#include "ledger.hpp"

using perfbench::Layer;

namespace {

int failures = 0;

void expect(const char* what, unsigned long long got, unsigned long long want) {
  if (got != want) {
    std::printf("FAIL %s: got %llu, want %llu\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  perfbench::SpanStack st;
  st.enter(Layer::kWorkload, 0);
  st.enter(Layer::kClient, 10);
  st.enter(Layer::kProtocol, 15);
  expect("protocol duration", st.exit(20), 5);
  expect("first client duration", st.exit(30), 20);
  st.enter(Layer::kClient, 30);
  st.enter(Layer::kClient, 35);
  st.exit(45);
  st.exit(50);
  st.enter(Layer::kStorage, 50);
  st.exit(60);
  expect("workload duration", st.exit(100), 100);
  st.enter(Layer::kNet, 100);
  st.exit(130);
  expect("depth after close", st.depth(), 0);

  const perfbench::LedgerTotals& t = st.totals();
  auto self = [&](Layer l) { return t.self_ticks[static_cast<std::size_t>(l)]; };
  expect("workload self", self(Layer::kWorkload), 50);
  expect("client self", self(Layer::kClient), 35);
  expect("protocol self", self(Layer::kProtocol), 5);
  expect("storage self", self(Layer::kStorage), 10);
  expect("net self", self(Layer::kNet), 30);
  expect("client spans", t.spans[static_cast<std::size_t>(Layer::kClient)], 3);
  expect("root ticks", t.root_ticks, 130);
  expect("self sum equals root ticks", t.self_sum(), t.root_ticks);

  // Merging two threads' totals adds them field by field.
  perfbench::LedgerTotals sum;
  sum.merge(t);
  sum.merge(t);
  expect("merged root ticks", sum.root_ticks, 260);
  expect("merged self sum", sum.self_sum(), 260);

  // A span is charged to the layer that is innermost when it closes, and
  // the current layer follows the stack.
  perfbench::SpanStack st2;
  expect("empty stack falls back",
         static_cast<unsigned long long>(st2.current_or(Layer::kWorkload)),
         static_cast<unsigned long long>(Layer::kWorkload));
  st2.enter(Layer::kServer, 0);
  expect("current layer", static_cast<unsigned long long>(st2.current_or(Layer::kWorkload)),
         static_cast<unsigned long long>(Layer::kServer));
  st2.exit(7);

  if (failures == 0) std::printf("ledger self-test: ok\n");
  return failures == 0 ? 0 : 1;
}
