// Experiment T1 — "During normal operation, this protocol invokes no message
// overhead" (abstract / section 3.1).
//
// Compares lease-maintenance traffic for the three strategies the paper
// discusses: Storage Tank (single implicit lease, opportunistic renewal),
// V-system per-object leases (one renewal stream per cached object), and
// Frangipani-style heartbeats (one unconditional stream per client).
// Sweeps client count, cached-object count and activity rate.
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "rt/parallel.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

struct Overhead {
  std::uint64_t lease_msgs{0};
  std::uint64_t total_frames{0};
  std::uint64_t ops{0};
};

Overhead run(core::LeaseStrategy strategy, std::uint32_t clients, std::uint32_t files,
             double interarrival_s) {
  workload::ScenarioConfig cfg;
  cfg.strategy = strategy;
  cfg.workload.num_clients = clients;
  cfg.workload.num_files = files;
  cfg.workload.file_blocks = 2;
  cfg.workload.mean_interarrival_s = interarrival_s;
  cfg.workload.read_fraction = 0.9;  // mostly reads: locks accumulate and stay cached
  cfg.workload.zipf_s = 0.0;         // touch all files so all get cached/locked
  cfg.workload.run_seconds = 60.0;
  cfg.workload.settle_seconds = 1.0;
  cfg.lease.tau = sim::local_seconds(10);

  workload::Scenario sc(cfg);
  auto r = sc.run();
  Overhead o;
  o.lease_msgs = r.clients.lease_only_msgs;
  o.total_frames = r.clients.total_frames() + r.server.total_frames();
  o.ops = r.reads_ok + r.writes_ok;
  return o;
}

// Warm up for 20s, then count lease-only messages over 60 idle seconds.
std::uint64_t run_idle(core::LeaseStrategy strategy, std::uint32_t clients, std::uint32_t files) {
  workload::ScenarioConfig cfg;
  cfg.strategy = strategy;
  cfg.workload.num_clients = clients;
  cfg.workload.num_files = files;
  cfg.workload.file_blocks = 2;
  cfg.workload.mean_interarrival_s = 0.02;  // fast warm-up touches all files
  cfg.workload.read_fraction = 0.9;
  cfg.workload.zipf_s = 0.0;
  cfg.workload.run_seconds = 20.0;  // generators stop here
  cfg.lease.tau = sim::local_seconds(10);

  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_generators();
  sc.run_until_s(20.0);
  std::uint64_t at_idle_start = 0;
  for (std::size_t c = 0; c < sc.num_clients(); ++c) {
    at_idle_start += sc.client(c).counters().lease_only_msgs;
  }
  sc.run_until_s(80.0);  // 60 idle seconds: caches preserved by leases alone
  std::uint64_t at_end = 0;
  for (std::size_t c = 0; c < sc.num_clients(); ++c) {
    at_end += sc.client(c).counters().lease_only_msgs;
  }
  return at_end - at_idle_start;
}

}  // namespace

int main() {
  std::printf("T1: lease-maintenance message overhead by strategy (60s, tau=10s)\n\n");

  const std::vector<core::LeaseStrategy> strategies = {core::LeaseStrategy::kStorageTank,
                                                       core::LeaseStrategy::kVLeases,
                                                       core::LeaseStrategy::kFrangipani};
  const std::vector<std::uint32_t> file_counts = {4, 16, 64};
  constexpr std::uint32_t kClients = 4;

  {
    Table tbl({"strategy", "clients", "cached objects", "ops done", "lease msgs",
               "lease msgs/s/client", "% of all frames"});
    tbl.title("ACTIVE clients (mean 50ms between ops)");
    // Cells are independent simulations; run them across cores and print in
    // index order so the table is identical at any thread count.
    std::vector<Overhead> cells(strategies.size() * file_counts.size());
    rt::parallel_for(cells.size(), [&](std::size_t idx) {
      cells[idx] = run(strategies[idx / file_counts.size()], kClients,
                       file_counts[idx % file_counts.size()], 0.05);
    });
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      const auto& o = cells[idx];
      tbl.row()
          .cell(to_string(strategies[idx / file_counts.size()]))
          .cell(kClients)
          .cell(file_counts[idx % file_counts.size()])
          .cell(o.ops)
          .cell(o.lease_msgs)
          .cell(static_cast<double>(o.lease_msgs) / 60.0 / kClients, 3)
          .cell(100.0 * static_cast<double>(o.lease_msgs) /
                    static_cast<double>(o.total_frames),
                2);
    }
    tbl.print(std::cout);
    std::printf("\n");
  }

  {
    Table tbl({"strategy", "clients", "cached objects", "idle lease msgs",
               "lease msgs/s/client"});
    tbl.title("IDLE clients: 20s warm-up populates caches/locks, then 60s of no activity");
    std::vector<std::uint64_t> cells(strategies.size() * file_counts.size());
    rt::parallel_for(cells.size(), [&](std::size_t idx) {
      cells[idx] = run_idle(strategies[idx / file_counts.size()], kClients,
                            file_counts[idx % file_counts.size()]);
    });
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      tbl.row()
          .cell(to_string(strategies[idx / file_counts.size()]))
          .cell(kClients)
          .cell(file_counts[idx % file_counts.size()])
          .cell(cells[idx])
          .cell(static_cast<double>(cells[idx]) / 60.0 / kClients, 3);
    }
    tbl.print(std::cout);
  }

  std::printf(
      "\nExpected shape (paper sections 3.1, 4, 5):\n"
      "  storage-tank: ~0 lease messages while active (opportunistic renewal);\n"
      "                ~1 keep-alive per phase-2 visit when idle — independent of\n"
      "                cache size.\n"
      "  v-leases:     renewal stream PER CACHED OBJECT — grows with the cache,\n"
      "                active or idle.\n"
      "  frangipani:   constant heartbeat stream per client, active or idle.\n");
  return 0;
}
