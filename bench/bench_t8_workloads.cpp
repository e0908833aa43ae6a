// Experiment T8 (extension, paper section 6) — workload sensitivity.
//
// The paper closes by noting that "measurement of modern file system
// workloads are required to experimentally verify our design". This bench
// runs the protocol under canonical access patterns and reports what each
// one costs the locking/lease machinery: demand churn, lock grants, lease
// messages, cache effectiveness. The headline claims (zero lease overhead
// for active clients, zero authority state) must hold under ALL of them.
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "rt/parallel.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

struct T8Row {
  std::uint64_t ops{0};
  std::uint64_t demands{0};
  std::uint64_t grants{0};
  std::uint64_t lease_msgs{0};
  std::uint64_t lease_ops{0};
  double hit_rate{0};
  double p99_ms{0};
  std::size_t violations{0};
};

T8Row run(workload::Pattern pattern) {
  workload::ScenarioConfig cfg;
  cfg.workload.pattern = pattern;
  cfg.workload.num_clients = 6;
  cfg.workload.num_files = 12;
  cfg.workload.file_blocks = 8;
  cfg.workload.read_fraction = 0.7;
  cfg.workload.mean_interarrival_s = 0.03;
  cfg.workload.run_seconds = 60.0;
  cfg.lease.tau = sim::local_seconds(10);

  workload::Scenario sc(cfg);
  auto r = sc.run();
  T8Row row;
  row.ops = r.reads_ok + r.writes_ok;
  row.demands = r.server.lock_demands;
  row.grants = r.server.lock_grants;
  row.lease_msgs = r.clients.lease_only_msgs;
  row.lease_ops = r.server.lease_ops;
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t c = 0; c < sc.num_clients(); ++c) {
    hits += sc.client(c).cache().hits();
    misses += sc.client(c).cache().misses();
  }
  row.hit_rate = hits + misses == 0 ? 0.0
                                    : static_cast<double>(hits) /
                                          static_cast<double>(hits + misses);
  row.p99_ms = r.op_latency_ms.quantile(0.99);
  row.violations = r.violations.total();
  return row;
}

}  // namespace

int main() {
  std::printf("T8 (extension): protocol cost by workload pattern (6 clients, 60s, tau=10s)\n\n");

  Table tbl({"pattern", "ops", "demands", "demands/op", "grants", "lease msgs",
             "authority lease ops", "cache hit rate", "op p99 (ms)", "violations"});
  tbl.title("Same installation, four canonical access patterns");
  const std::vector<workload::Pattern> patterns = {
      workload::Pattern::kPrivate, workload::Pattern::kSequential,
      workload::Pattern::kRandomZipf, workload::Pattern::kProducerConsumer};
  // Independent simulations: sweep in parallel, print in index order.
  std::vector<T8Row> cells(patterns.size());
  rt::parallel_for(cells.size(), [&](std::size_t idx) { cells[idx] = run(patterns[idx]); });
  for (std::size_t idx = 0; idx < cells.size(); ++idx) {
    const auto& r = cells[idx];
    tbl.row()
        .cell(to_string(patterns[idx]))
        .cell(r.ops)
        .cell(r.demands)
        .cell(static_cast<double>(r.demands) / static_cast<double>(r.ops), 4)
        .cell(r.grants)
        .cell(r.lease_msgs)
        .cell(r.lease_ops)
        .cell(r.hit_rate, 3)
        .cell(r.p99_ms, 2)
        .cell(r.violations);
  }
  tbl.print(std::cout);

  std::printf(
      "\nReading: the lock protocol's cost is entirely sharing-driven — private\n"
      "files settle into pure cache hits with zero revocation traffic, while\n"
      "producer/consumer pays a demand per handoff. Across ALL patterns the lease\n"
      "machinery itself stays free: zero authority lease ops, and lease-only\n"
      "messages only from clients idle long enough to reach phase 2. That is the\n"
      "paper's separation: coherency traffic scales with sharing, safety traffic\n"
      "scales with failures — never with the workload.\n");
  return 0;
}
