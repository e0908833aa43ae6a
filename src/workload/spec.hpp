// Synthetic workload parameters.
//
// The paper defers workload measurement to future work ("measurement of
// modern file system workloads are required to experimentally verify our
// design", section 6); these synthetic mixes are the stand-in: a pool of
// preallocated files, Zipf-popularity access, a read/write mix, and
// exponential think times per client.
#pragma once

#include <cstdint>

namespace stank::workload {

// Canonical access patterns, stressing different parts of the lock protocol:
//   kRandomZipf        popularity-skewed random block I/O (default)
//   kSequential        every client scans files/blocks in order (backup-like)
//   kProducerConsumer  client 0 writes, everyone else reads the same pool
//                      (maximum demand/downgrade churn)
//   kPrivate           client i touches only files f with f % clients == i
//                      (no sharing: locks acquired once, then pure cache)
//   kLockCycle         the swarm mix, control path only: each client
//                      registers somewhere in [0.001, 1) s, opens one
//                      Zipf-chosen file and loops lock -> release -> think
//                      (closed loop; no data I/O). read_fraction is the
//                      shared-lock share, mean_interarrival_s the think time.
enum class Pattern : std::uint8_t {
  kRandomZipf = 0,
  kSequential,
  kProducerConsumer,
  kPrivate,
  kLockCycle,
};

[[nodiscard]] constexpr const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::kRandomZipf: return "random-zipf";
    case Pattern::kSequential: return "sequential";
    case Pattern::kProducerConsumer: return "producer-consumer";
    case Pattern::kPrivate: return "private-files";
    case Pattern::kLockCycle: return "lock-cycle";
  }
  return "?";
}

struct WorkloadSpec {
  Pattern pattern{Pattern::kRandomZipf};
  std::uint32_t num_clients{4};
  std::uint32_t num_files{16};
  std::uint32_t file_blocks{16};       // preallocated size of each file, in blocks
  double read_fraction{0.7};           // remaining ops are block writes
  double mean_interarrival_s{0.050};   // per-client exponential think time
  double zipf_s{0.8};                  // file popularity skew (0 = uniform)
  double run_seconds{60.0};            // active workload window
  // Quiet period after the run for recovery, phase-4 flushes and final
  // syncs; <= 0 picks a default derived from the lease period.
  double settle_seconds{-1.0};
  std::uint64_t seed{1};
};

}  // namespace stank::workload
