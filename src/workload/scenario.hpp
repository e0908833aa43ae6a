// Scenario: one complete simulated Storage Tank installation plus a workload
// driver, failure injector, and verifier.
//
// This is the single entry point the examples, experiment benches, the
// safety fuzzer and the swarm benches build on. A scenario owns the engine,
// both networks, the disks, K servers, the clients (each with an
// independently rate-skewed clock inside the epsilon band), the omniscient
// history recorder, and a per-client op generator. run() executes setup ->
// workload+failures -> settle -> consistency check and returns every number
// the tables need.
//
// The engine is a sim::ShardedEngine with K = cfg.engine.shards shards and
// one server per shard (server j on shard j). Client i registers with server
// i mod K and lives on shard (i + i/K) mod K, so every shard hosts N/K
// clients. K = 1 is the serial engine exactly: same RNG streams, same event
// sequence, same results.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "metrics/histogram.hpp"
#include "net/control_net.hpp"
#include "net/sharded_net.hpp"
#include "obs/counters.hpp"
#include "obs/recorder.hpp"
#include "obs/sampler.hpp"
#include "obs/watchdog.hpp"
#include "server/server.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_engine.hpp"
#include "storage/san.hpp"
#include "verify/checker.hpp"
#include "verify/history.hpp"
#include "workload/failures.hpp"
#include "workload/spec.hpp"

namespace stank::workload {

struct ScenarioConfig {
  WorkloadSpec workload;
  core::LeaseConfig lease;
  server::RecoveryMode recovery{server::RecoveryMode::kLeaseAndFence};
  core::LeaseStrategy strategy{core::LeaseStrategy::kStorageTank};
  client::CoherenceMode coherence{client::CoherenceMode::kLocks};
  client::DataPath data_path{client::DataPath::kDirectSan};
  net::NetConfig control_net;
  storage::SanConfig san;
  protocol::TransportConfig transport;
  std::uint32_t block_size{256};
  std::uint64_t disk_blocks{1u << 16};
  std::uint32_t num_disks{1};
  FailurePlan failures;
  // Post-restart grace period forwarded to the server; 0 = its safe default
  // tau(1+eps).
  sim::LocalDuration recovery_grace{sim::LocalDuration{0}};
  bool heal_at_settle{true};
  bool enable_trace{false};
  // Shards (K servers, server j on shard j) and worker threads. K > 1 runs
  // the control path only: the kLockCycle pattern with no failure plan.
  sim::ShardedEngine::Config engine;
  // Arm the sharded engine's per-shard counters and, at K > 1, a watchdog
  // on its barrier snapshot hook (mailbox depth, shard imbalance). The
  // watchdog writes to its own recorder, never a trace recorder, and
  // neither schedules events, so armed and dark runs are identical.
  bool shard_telemetry{false};
  // Clock-rate assignment inside [1/(1+eps), 1+eps]: 0 random per node,
  // +1 clients slow / server fast (adversarial for availability),
  // -1 clients fast / server slow (adversarial for safety margins),
  // +2 ideal (all clocks exactly rate 1 — for benches that compare local
  //    and global timestamps directly).
  int clock_skew_mode{0};

  // --- Assumption-violation knobs (tools/fuzz_safety negative control) ----
  // The paper's safety guarantee rests on two assumptions; these knobs break
  // them on purpose so the checker's teeth can be demonstrated.
  //
  // Lease period the CLIENTS believe in (tau_c); 0 inherits lease.tau, which
  // always remains the server's tau_s. Theorem 3.1 needs tau_c <= tau_s; a
  // client trusting tau_c >= tau_s(1+eps) keeps serving its cache after the
  // server has provably-expired the lease and stolen the locks.
  sim::LocalDuration client_tau{sim::LocalDuration{0}};
  // Multiplier applied to every client's drawn clock rate. 1.0 keeps all
  // rates inside the legal band; values below 1/(1+eps) make client clocks
  // run slower than rate synchronization allows, stretching tau_c in real
  // time beyond what the server's tau_s(1+eps) wait covers.
  double client_rate_scale{1.0};

  // --- Adversarial clients (tools/fuzz_safety --byzantine) ----------------
  // Client index -> misbehavior set. Marked clients are recorded in the
  // history so the checker's split verdict (DESIGN.md §13) can separate
  // honest-client safety from self-inflicted byzantine damage.
  std::map<std::size_t, client::ByzantineSpec> byzantine;
  // Override for the server's demand compliance timeout; 0 keeps the
  // ServerConfig default. Byzantine episodes shorten it so an
  // ack-without-release stall escalates to fence+steal within the run.
  sim::LocalDuration demand_timeout{sim::LocalDuration{0}};
};

struct ScenarioResult {
  verify::ViolationSummary violations;
  std::vector<verify::Violation> violation_list;
  // The same list bucketed by victim (DESIGN.md §13). With no byzantine
  // clients configured, honest_violations == violation_list.
  std::vector<verify::Violation> honest_violations;
  std::vector<verify::Violation> byzantine_violations;

  std::uint64_t reads_ok{0};
  std::uint64_t writes_ok{0};
  std::uint64_t ops_failed{0};

  metrics::Counters server;   // summed across servers
  metrics::Counters clients;  // summed across clients
  net::NetStats net;
  storage::SanStats san;
  // SAN commands the fence list rejected, summed over disks, per initiator.
  // For a byzantine run this is the count of attacks the trusted base (the
  // disks' fence lists) absorbed — the fuzzer reports it per misbehavior.
  std::map<NodeId, std::uint64_t> fence_rejects_by_initiator;

  // Peak lease bookkeeping at the server (sampled), and at the end; with
  // K > 1 servers, the largest single server's.
  std::size_t max_lease_state_bytes{0};
  std::size_t final_lease_state_bytes{0};

  metrics::Histogram op_latency_ms;
  double sim_seconds{0.0};
  std::uint64_t engine_events{0};

  // Flight-recorder events lost to ring overwrite (0 when untraced). A
  // nonzero count on a violating run means the retained trace window may
  // not reach back to the root cause.
  std::uint64_t trace_dropped{0};
  // Invariant-watchdog threshold crossings during the run (0 when untraced).
  std::uint64_t watchdog_trips{0};

  // One-line final verdict: consistency outcome, op counts, and the network
  // summary (what the fabric did to the traffic explains a bad run).
  [[nodiscard]] std::string verdict_line() const;
};

// Per-client op outcomes. Written only by the client's own shard.
struct ClientOps {
  std::uint64_t reads_ok{0};   // kLockCycle: shared lock/release cycles
  std::uint64_t writes_ok{0};  // kLockCycle: exclusive lock/release cycles
  std::uint64_t failed{0};     // kLockCycle: also failed opens
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig cfg);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // The standard pipeline.
  ScenarioResult run();

  // Piecewise control for bespoke drivers (figure benches, examples).
  void setup();                 // builds nodes, preallocates, registers, opens
  void run_generators();        // starts the op generators (ends at run_seconds)
  void run_until_s(double t_s); // advance simulated time
  ScenarioResult finish();      // settle, final sync, consistency check

  // --- Access -------------------------------------------------------------
  // The single-server accessors name shard 0's objects: with K = 1 they are
  // the whole installation.
  [[nodiscard]] sim::Engine& engine() { return engine_.shard(0); }
  [[nodiscard]] sim::ShardedEngine& sharded_engine() { return engine_; }
  [[nodiscard]] server::Server& server() { return *servers_[0]; }
  [[nodiscard]] server::Server& server(std::size_t j) { return *servers_.at(j); }
  [[nodiscard]] std::size_t num_servers() const { return servers_.size(); }
  [[nodiscard]] client::Client& client(std::size_t i) { return *clients_.at(i); }
  [[nodiscard]] std::size_t num_clients() const { return clients_.size(); }
  [[nodiscard]] const ClientOps& client_ops(std::size_t i) const { return drivers_.at(i).ops; }
  [[nodiscard]] net::ControlNet& control_net() { return net_->shard(0); }
  [[nodiscard]] net::ShardedNet& sharded_net() { return *net_; }
  [[nodiscard]] storage::SanFabric& san() { return *sans_[0]; }
  // The typed flight recorders, one per shard (always present; only fed
  // when cfg.enable_trace attached them to the nodes).
  [[nodiscard]] obs::Recorder& recorder() { return *recorders_[0]; }
  [[nodiscard]] obs::Recorder& recorder(std::size_t shard) { return *recorders_.at(shard); }
  // Null unless armed: by cfg.enable_trace at K = 1 (lease-timer cadence),
  // by cfg.shard_telemetry at K > 1 (barrier snapshot cadence).
  [[nodiscard]] obs::Watchdog* watchdog() { return watchdog_.get(); }
  // The sharded engine's counter registry; null unless shard telemetry is
  // armed.
  [[nodiscard]] const obs::Counters* shard_counters() const { return shard_counters_.get(); }
  [[nodiscard]] verify::HistoryRecorder& history() { return history_; }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  [[nodiscard]] NodeId server_node() const { return server_node(0); }
  [[nodiscard]] NodeId server_node(std::size_t j) const;
  [[nodiscard]] NodeId client_node(std::size_t i) const;
  [[nodiscard]] FileId file_id(std::size_t file_idx) const { return file_ids_.at(file_idx); }
  [[nodiscard]] client::Fd fd(std::size_t client_idx, std::size_t file_idx) const;

  // Next version for a block, drawn under the caller's lock (see the
  // generator): strictly increasing per (file, block).
  std::uint64_t next_version(FileId file, std::uint64_t block);

  // Applies one failure event immediately (the plan scheduler uses this).
  // K = 1 only.
  void apply_failure(const FailureEvent& ev);

 private:
  struct ClientDriver {
    std::size_t index{0};
    unsigned shard{0};  // engine shard hosting the client and its timers
    bool running{false};
    std::map<std::size_t, client::Fd> fds;  // file idx -> fd (kLockCycle: the one file)
    sim::Rng rng{0};
    std::uint64_t cursor{0};  // sequential patterns: absolute block position
    ClientOps ops;
    // kLockCycle: a crash drops the live loop's callbacks but not its think
    // timer, so it bumps cycle_gen to retire that loop. The cycle in flight
    // keeps its start and mode here: its callbacks capture only [this, ci].
    bool cycling{false};
    std::uint32_t cycle_gen{0};
    sim::SimTime cycle_t0;
    protocol::LockMode cycle_mode{protocol::LockMode::kShared};
  };
  // Picks (file, block, is_read) for this arrival under the configured
  // pattern.
  struct OpChoice {
    std::size_t file_idx{0};
    std::uint64_t block{0};
    bool is_read{true};
  };
  OpChoice choose_op(ClientDriver& d);

  void build();
  void arm_shard_telemetry();
  [[nodiscard]] unsigned shards() const { return engine_.shard_count(); }
  [[nodiscard]] unsigned client_shard(std::size_t i) const;
  [[nodiscard]] sim::Engine& engine_of(const ClientDriver& d) { return engine_.shard(d.shard); }
  // The shard's trace recorder, or null when tracing is off.
  [[nodiscard]] obs::Recorder* trace_rec(unsigned shard) {
    return cfg_.enable_trace ? recorders_[shard].get() : nullptr;
  }
  void open_all_files(std::size_t ci, std::function<void()> done);
  void schedule_next_op(std::size_t ci);
  void issue_op(std::size_t ci);
  void do_write(std::size_t ci, std::size_t fi, std::uint64_t block);
  void do_read(std::size_t ci, std::size_t fi, std::uint64_t block);
  // kLockCycle: open one Zipf-chosen file, then lock -> release -> think.
  void open_cycle_file(std::size_t ci);
  void maybe_start_cycle(std::size_t ci);
  void schedule_next_cycle(std::size_t ci, std::uint32_t gen);
  void lock_cycle(std::size_t ci, std::uint32_t gen);
  // Records a completed op's latency on the client's shard.
  void note_op_latency(const ClientDriver& d, sim::SimTime t0);
  // Server j's lease-state sampling tick, on shard j.
  void sample_lease_state(std::size_t j);
  [[nodiscard]] double now_s() const { return engine_.shard(0).now().seconds(); }
  [[nodiscard]] bool workload_over(const ClientDriver& d) const {
    return engine_.shard(d.shard).now().seconds() >= cfg_.workload.run_seconds;
  }

  ScenarioConfig cfg_;
  sim::ShardedEngine engine_;
  sim::Rng rng_;
  // Heap-held: inlining the 640-byte recorder into Scenario raised peak RSS
  // by ~8% over eight back-to-back scenarios of perfbench's io-shared-faults
  // (allocator fragmentation), with tracing off.
  std::vector<std::unique_ptr<obs::Recorder>> recorders_;
  std::unique_ptr<obs::Sampler> sampler_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  // Shard telemetry: the registry and the watchdog's private recorder.
  std::unique_ptr<obs::Counters> shard_counters_;
  std::unique_ptr<obs::Recorder> watchdog_rec_;
  verify::HistoryRecorder history_;

  std::unique_ptr<net::ShardedNet> net_;
  std::vector<std::unique_ptr<storage::SanFabric>> sans_;      // one per shard
  std::vector<std::unique_ptr<server::Server>> servers_;       // server j on shard j
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::vector<ClientDriver> drivers_;
  std::unique_ptr<sim::ZipfTable> cycle_zipf_;  // kLockCycle file popularity
  std::vector<FileId> file_ids_;
  std::map<std::pair<FileId, std::uint64_t>, std::uint64_t> versions_;

  std::vector<metrics::Histogram> op_latency_ms_;  // per shard
  std::vector<std::size_t> max_lease_bytes_;       // per server
  bool setup_done_{false};
  double settle_seconds_{0.0};
};

}  // namespace stank::workload
