// Experiment T2 — "uses no memory and performs no computation at the locking
// authority" (abstract / section 3).
//
// Measures the server's lease bookkeeping — operations performed and peak
// bytes held — for the three strategies, during failure-free operation and
// across a failure burst. Storage Tank's authority must show 0/0 in the
// failure-free columns; its state exists only between a delivery failure and
// the corresponding re-registration.
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "rt/parallel.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

struct ServerCost {
  std::uint64_t lease_ops{0};
  std::size_t peak_bytes{0};
  std::size_t final_bytes{0};
  std::uint64_t txns{0};
};

ServerCost run(core::LeaseStrategy strategy, std::uint32_t clients, std::uint32_t files,
               bool inject_failures) {
  workload::ScenarioConfig cfg;
  cfg.strategy = strategy;
  cfg.workload.num_clients = clients;
  cfg.workload.num_files = files;
  cfg.workload.file_blocks = 2;
  cfg.workload.read_fraction = 0.8;
  cfg.workload.zipf_s = 0.0;
  cfg.workload.mean_interarrival_s = 0.05;
  cfg.workload.run_seconds = 60.0;
  cfg.lease.tau = sim::local_seconds(8);
  if (inject_failures) {
    sim::Rng frng(99);
    cfg.failures = workload::FailurePlan::random(frng, cfg.workload, 4);
  }

  workload::Scenario sc(cfg);
  auto r = sc.run();
  return ServerCost{r.server.lease_ops, r.max_lease_state_bytes, r.final_lease_state_bytes,
                    r.server.transactions};
}

}  // namespace

int main() {
  std::printf("T2: lease bookkeeping at the locking authority (60s, tau=8s)\n\n");

  const std::vector<core::LeaseStrategy> strategies = {core::LeaseStrategy::kStorageTank,
                                                       core::LeaseStrategy::kVLeases,
                                                       core::LeaseStrategy::kFrangipani};

  {
    Table tbl({"strategy", "clients", "objects", "lease ops", "peak state (B)",
               "state at end (B)"});
    tbl.title("Failure-free operation");
    const std::vector<std::uint32_t> client_counts = {4, 16};
    const std::vector<std::uint32_t> file_counts = {8, 64};
    const std::size_t per_strategy = client_counts.size() * file_counts.size();
    // Independent simulations: sweep in parallel, print in index order.
    std::vector<ServerCost> cells(strategies.size() * per_strategy);
    rt::parallel_for(cells.size(), [&](std::size_t idx) {
      cells[idx] = run(strategies[idx / per_strategy],
                       client_counts[(idx % per_strategy) / file_counts.size()],
                       file_counts[idx % file_counts.size()], false);
    });
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      const auto& c = cells[idx];
      tbl.row()
          .cell(to_string(strategies[idx / per_strategy]))
          .cell(client_counts[(idx % per_strategy) / file_counts.size()])
          .cell(file_counts[idx % file_counts.size()])
          .cell(c.lease_ops)
          .cell(c.peak_bytes)
          .cell(c.final_bytes);
    }
    tbl.print(std::cout);
    std::printf("\n");
  }

  {
    Table tbl({"strategy", "lease ops", "peak state (B)", "state at end (B)"});
    tbl.title("With a burst of partitions and crashes (4 random failures)");
    std::vector<ServerCost> cells(strategies.size());
    rt::parallel_for(cells.size(),
                     [&](std::size_t idx) { cells[idx] = run(strategies[idx], 8, 16, true); });
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      const auto& c = cells[idx];
      tbl.row().cell(to_string(strategies[idx])).cell(c.lease_ops).cell(c.peak_bytes).cell(c.final_bytes);
    }
    tbl.print(std::cout);
  }

  std::printf(
      "\nExpected shape:\n"
      "  storage-tank: 0 ops / 0 bytes while nothing fails; a few ops and a few\n"
      "                dozen bytes per concurrently-failed client, returning to 0.\n"
      "  v-leases:     ops per grant+renewal and bytes per (client, object) pair —\n"
      "                grows with clients x objects, never 0.\n"
      "  frangipani:   ops per heartbeat and one table entry per client, never 0.\n");
  return 0;
}
