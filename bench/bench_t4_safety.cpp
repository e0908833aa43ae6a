// Experiment T4 — safety: consistency violations by recovery policy across
// failure classes, over many randomized runs.
//
// For every {recovery policy} x {failure class} cell, runs several seeds of
// a contended workload with the injected failure and totals what the
// omniscient checker finds: write-order races, stale reads, lost updates.
// This is the paper's core argument (sections 2, 2.1, 3) as one table.
#include <atomic>
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "rt/parallel.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

enum class FailureClass { kCtrlPartition, kAsymPartition, kCrash, kTransient, kSlowClient };

const char* name_of(FailureClass f) {
  switch (f) {
    case FailureClass::kCtrlPartition: return "ctrl partition";
    case FailureClass::kAsymPartition: return "asym partition";
    case FailureClass::kCrash: return "client crash";
    case FailureClass::kTransient: return "transient glitch";
    case FailureClass::kSlowClient: return "slow client I/O";
  }
  return "?";
}

verify::ViolationSummary run_cell(server::RecoveryMode recovery, FailureClass failure,
                                  std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 4;
  cfg.workload.num_files = 4;  // contended
  cfg.workload.file_blocks = 4;
  cfg.workload.read_fraction = 0.5;
  cfg.workload.mean_interarrival_s = 0.05;
  cfg.workload.run_seconds = 40.0;
  cfg.workload.seed = seed;
  cfg.lease.tau = sim::local_seconds(6);
  cfg.recovery = recovery;

  switch (failure) {
    case FailureClass::kCtrlPartition:
      cfg.failures.add(10.0, workload::FailureKind::kCtrlIsolate, 0);
      cfg.failures.add(30.0, workload::FailureKind::kCtrlHeal, 0);
      break;
    case FailureClass::kAsymPartition:
      cfg.failures.add(10.0, workload::FailureKind::kCtrlSeverToServer, 0);
      cfg.failures.add(30.0, workload::FailureKind::kCtrlHeal, 0);
      break;
    case FailureClass::kCrash:
      cfg.failures.add(10.0, workload::FailureKind::kCrash, 0);
      cfg.failures.add(25.0, workload::FailureKind::kRestart, 0);
      break;
    case FailureClass::kTransient:
      cfg.failures.add(10.0, workload::FailureKind::kCtrlIsolate, 0);
      cfg.failures.add(13.0, workload::FailureKind::kCtrlHeal, 0);
      break;
    case FailureClass::kSlowClient:
      // The section-6 case: the victim is partitioned AND its SAN commands
      // crawl — its phase-4 flush lands long after its lease has expired.
      // Only the fence can stop that late write.
      cfg.failures.add(10.0, workload::FailureKind::kCtrlIsolate, 0);
      cfg.failures.add(10.0, workload::FailureKind::kSlowSan, 0, /*delay=*/25.0);
      cfg.failures.add(38.0, workload::FailureKind::kCtrlHeal, 0);
      break;
  }

  workload::Scenario sc(cfg);
  return sc.run().violations;
}

}  // namespace

int main() {
  std::printf("T4: consistency violations by recovery policy (4 clients, contended files,\n"
              "    5 seeds per cell; counts are totals across seeds)\n\n");

  const std::vector<server::RecoveryMode> policies = {
      server::RecoveryMode::kNaiveSteal, server::RecoveryMode::kFenceOnly,
      server::RecoveryMode::kLeaseOnly, server::RecoveryMode::kLeaseAndFence};
  const std::vector<FailureClass> failures = {
      FailureClass::kCtrlPartition, FailureClass::kAsymPartition, FailureClass::kCrash,
      FailureClass::kTransient, FailureClass::kSlowClient};
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};

  struct Cell {
    verify::ViolationSummary v;
  };
  std::vector<Cell> cells(policies.size() * failures.size());

  // Each cell runs its seeds; cells are independent simulations, so spread
  // them across cores.
  rt::parallel_for(cells.size(), [&](std::size_t idx) {
    const auto p = policies[idx / failures.size()];
    const auto f = failures[idx % failures.size()];
    verify::ViolationSummary total;
    for (auto seed : seeds) {
      auto v = run_cell(p, f, seed);
      total.write_order += v.write_order;
      total.stale_reads += v.stale_reads;
      total.lost_updates += v.lost_updates;
    }
    cells[idx].v = total;
  });

  Table tbl({"recovery policy", "failure", "write races", "stale reads", "lost updates",
             "verdict"});
  tbl.title("Violations over 5 seeds x 40s contended runs");
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    for (std::size_t fi = 0; fi < failures.size(); ++fi) {
      const auto& v = cells[pi * failures.size() + fi].v;
      // A slow client's unflushable dirty data is lost by design (section 6:
      // the fence "cannot guarantee data consistency, it can prevent
      // unsynchronized conflicting accesses") — for that class, safety means
      // no races and no stale reads.
      const bool slow = failures[fi] == FailureClass::kSlowClient;
      const bool safe = slow ? (v.write_order + v.stale_reads == 0) : v.total() == 0;
      tbl.row()
          .cell(to_string(policies[pi]))
          .cell(name_of(failures[fi]))
          .cell(v.write_order)
          .cell(v.stale_reads)
          .cell(v.lost_updates)
          .cell(safe ? (slow && v.lost_updates > 0 ? "SAFE*" : "SAFE") : "UNSAFE");
    }
  }
  tbl.print(std::cout);

  std::printf(
      "\nExpected shape (paper sections 2-3):\n"
      "  naive-steal:  races/stale/lost under partitions — two writers, no sync.\n"
      "  fence-only:   no races (the fence works) but stale reads and lost updates —\n"
      "                exactly section 2.1's critique.\n"
      "  lease-only:   clean for partitions and crashes, but a SLOW CLIENT whose\n"
      "                flush lands after the steal corrupts it — section 6's exact\n"
      "                argument for keeping the fence.\n"
      "  lease+fence:  clean everywhere — the paper's full protocol.\n"
      "  (crashes lose volatile state legitimately; no policy is charged for them.\n"
      "   SAFE* = no races or stale reads; the slow client's own unflushable dirty\n"
      "   data is lost, which no fence can prevent — section 6.)\n");
  return 0;
}
