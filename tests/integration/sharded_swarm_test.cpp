// Full-stack determinism of the sharded Scenario: real clients, servers,
// lease renewals and lock traffic (the kLockCycle swarm mix) on a
// ShardedEngine + ShardedNet.
//
// Three contracts are pinned here:
//  * A fixed (seed, K) run is bit-identical — same per-client op outcomes,
//    same network counters, same recorded trace streams — at every worker
//    thread count (the scheduler may only change WHERE a shard runs, never
//    what it computes), with shard telemetry armed or dark.
//  * K=1 reproduces a hand-built plain serial Engine + ControlNet stack
//    exactly, event for event, so growing a deployment to shards is not a
//    behaviour change until K > 1.
//  * A sharded Scenario runs end to end: consistency verdict, per-client
//    op counts that add up, lock-manager invariants on every server, and no
//    watchdog trip under the balanced client placement.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "client/client.hpp"
#include "net/control_net.hpp"
#include "obs/counters.hpp"
#include "obs/recorder.hpp"
#include "server/server.hpp"
#include "sim/engine.hpp"
#include "storage/san.hpp"
#include "workload/scenario.hpp"

namespace stank {
namespace {

// Small enough that no node overflows its 16384-event trace ring: at 512
// the server's ring wraps and Scenario's K = 1 lease-tick watchdog records a
// trace_dropped trip the plain serial stack has no watchdog to match.
constexpr std::uint32_t kClients = 256;
constexpr std::uint32_t kFiles = 16;
constexpr double kRunS = 3.0;
constexpr double kThinkS = 0.3;
constexpr double kReadFraction = 0.8;  // 20% exclusive locks
constexpr std::uint64_t kSeed = 0xDEC0DEu;
// Armed K = 2 runs must take this many barrier snapshots, one per 2048
// executed windows: 256 clients execute 12289 windows, 24 only 1141.
constexpr std::uint64_t kMinSnapshots = 4;
// Large enough that per-snapshot shard loads average out: the balanced
// imbalance gauge peaks at 1075 permille here, well inside the band.
constexpr std::uint32_t kBalancedClients = 2000;
constexpr std::uint64_t kBalancedMaxPermille = 1150;

workload::ScenarioConfig swarm_config(unsigned k, unsigned threads, bool telemetry) {
  workload::ScenarioConfig cfg;
  workload::WorkloadSpec& w = cfg.workload;
  w.pattern = workload::Pattern::kLockCycle;
  w.num_clients = kClients;
  w.num_files = kFiles;
  w.file_blocks = 1;
  w.zipf_s = 0.9;
  w.read_fraction = kReadFraction;
  w.mean_interarrival_s = kThinkS;
  w.run_seconds = kRunS;
  w.seed = kSeed;
  cfg.lease.tau = sim::local_seconds(1);  // several renewal rounds inside kRunS
  cfg.block_size = 4096;
  cfg.disk_blocks = kFiles * 16;
  cfg.clock_skew_mode = +2;
  cfg.enable_trace = true;
  cfg.engine.shards = k;
  cfg.engine.threads = threads;
  cfg.shard_telemetry = telemetry;
  return cfg;
}

// Everything a run produces that determinism must preserve.
struct RunResult {
  std::vector<std::uint64_t> member_ok;      // per client, index order
  std::vector<std::uint64_t> member_failed;  // per client, index order
  std::uint64_t events_executed{0};
  net::NetStats net;
  // The merged typed trace, flattened: (t, node, kind, a, b, aux) per event.
  std::vector<std::uint64_t> trace;

  bool operator==(const RunResult&) const = default;
};

void flatten_trace(const std::vector<const obs::Recorder*>& recs, std::vector<std::uint64_t>& out) {
  obs::Recorder::visit_merged_across(recs, [&](const obs::Event& e) {
    out.push_back(static_cast<std::uint64_t>(e.at.ns));
    out.push_back(e.node.value());
    out.push_back(static_cast<std::uint64_t>(e.kind));
    out.push_back(e.a);
    out.push_back(e.b);
    out.push_back(e.aux);
  });
}

RunResult run_scenario(workload::Scenario& sc) {
  sc.setup();
  sc.run_generators();
  sc.run_until_s(kRunS);

  RunResult r;
  for (std::size_t i = 0; i < sc.num_clients(); ++i) {
    const workload::ClientOps& ops = sc.client_ops(i);
    r.member_ok.push_back(ops.reads_ok + ops.writes_ok);
    r.member_failed.push_back(ops.failed);
  }
  r.events_executed = sc.sharded_engine().events_executed();
  r.net = sc.sharded_net().stats();
  std::vector<const obs::Recorder*> recs;
  for (unsigned s = 0; s < sc.config().engine.shards; ++s) recs.push_back(&sc.recorder(s));
  flatten_trace(recs, r.trace);
  return r;
}

RunResult run_sharded(unsigned k, unsigned threads, bool telemetry = false) {
  workload::Scenario sc(swarm_config(k, threads, telemetry));
  return run_scenario(sc);
}

std::uint64_t counter(const workload::Scenario& sc, const char* name) {
  const obs::Counters& ctr = *sc.shard_counters();
  return ctr.merged(ctr.find(name));
}

// The identical workload on a hand-built plain serial stack (Engine +
// ControlNet): the reference implementation of what Scenario builds at
// K=1 for kLockCycle — same RNG stream layout, same node ids and file
// paths, same draws in the same order, and the same 250 ms lease-state
// sampling tick.
RunResult run_plain_serial() {
  sim::Engine engine;
  sim::Rng root(kSeed);
  auto rec = std::make_unique<obs::Recorder>();
  auto fabric = std::make_unique<net::ControlNet>(engine, root.fork(1));
  auto san = std::make_unique<storage::SanFabric>(engine, root.fork(2));
  const DiskId disk{1};
  san->add_disk(disk, /*blocks=*/kFiles * 16, /*block_size=*/4096);

  server::ServerConfig scfg;
  scfg.id = NodeId{1};
  scfg.lease.tau = sim::local_seconds(1);
  scfg.block_size = 4096;
  scfg.data_disks = {disk};
  auto server = std::make_unique<server::Server>(engine, *fabric, *san, sim::LocalClock(1.0),
                                                 scfg, rec.get());

  struct Member {
    std::unique_ptr<client::Client> cl;
    sim::Rng rng{0};
    client::Fd fd{0};
    bool cycling{false};
    std::uint64_t ops_ok{0};
    std::uint64_t ops_failed{0};
  };
  std::vector<Member> members(kClients);
  for (std::uint32_t i = 0; i < kClients; ++i) {
    client::ClientConfig ccfg;
    ccfg.id = NodeId{100 + i};
    ccfg.server = NodeId{1};
    ccfg.lease.tau = sim::local_seconds(1);
    ccfg.block_size = 4096;
    members[i].cl = std::make_unique<client::Client>(engine, *fabric, *san,
                                                     sim::LocalClock(1.0), ccfg, rec.get());
  }
  for (std::uint32_t i = 0; i < kClients; ++i) members[i].rng = root.fork(1000 + i);
  rec->bind_engine(engine);
  fabric->set_recorder(rec.get());

  for (std::uint32_t f = 0; f < kFiles; ++f) {
    char path[24];
    std::snprintf(path, sizeof(path), "/data/f%u", f);
    if (!server->preallocate(path, 4096).ok()) ADD_FAILURE() << "preallocate failed";
  }
  server->start();

  const sim::ZipfTable zipf(kFiles, 0.9);
  struct Loop {
    std::vector<Member>& members;
    sim::Engine& engine;
    const sim::ZipfTable& zipf;
    void open_file(std::size_t idx) {
      char path[24];
      std::snprintf(path, sizeof(path), "/data/f%zu", zipf.pick(members[idx].rng.uniform()));
      members[idx].cl->open(path, false, [this, idx](Result<client::Fd> res) {
        Member& m = members[idx];
        if (!res.ok()) {
          ++m.ops_failed;
          engine.schedule_after(sim::millis(200), [this, idx]() { open_file(idx); });
          return;
        }
        m.fd = res.value();
        if (!m.cycling) {
          m.cycling = true;
          next(idx);
        }
      });
    }
    void next(std::size_t idx) {
      const double think = members[idx].rng.exponential(kThinkS);
      engine.schedule_after(sim::seconds_d(think), [this, idx]() { op(idx); });
    }
    void op(std::size_t idx) {
      if (engine.now().seconds() >= kRunS) return;
      Member& m = members[idx];
      const auto mode = m.rng.uniform() < 1.0 - kReadFraction ? protocol::LockMode::kExclusive
                                                              : protocol::LockMode::kShared;
      m.cl->lock(m.fd, mode, [this, idx](Status st) {
        if (!st.is_ok()) {
          ++members[idx].ops_failed;
          next(idx);
          return;
        }
        members[idx].cl->release(members[idx].fd, protocol::LockMode::kNone,
                                 [this, idx](Status st2) {
                                   (st2.is_ok() ? members[idx].ops_ok
                                                : members[idx].ops_failed)++;
                                   next(idx);
                                 });
      });
    }
  };
  Loop loop{members, engine, zipf};
  for (std::uint32_t i = 0; i < kClients; ++i) {
    members[i].cl->on_registered = [&loop, i]() { loop.open_file(i); };
    const double start_at = 0.001 + 0.999 * members[i].rng.uniform();
    engine.schedule_after(sim::seconds_d(start_at), [&members, i]() { members[i].cl->start(); });
  }
  std::function<void()> tick = [&engine, &tick]() {
    engine.schedule_after(sim::millis(250), [&tick]() { tick(); });
  };
  tick();

  engine.run_until(sim::SimTime{} + sim::seconds_d(kRunS));

  RunResult r;
  for (const Member& m : members) {
    r.member_ok.push_back(m.ops_ok);
    r.member_failed.push_back(m.ops_failed);
  }
  r.events_executed = engine.events_executed();
  r.net = fabric->stats();
  flatten_trace({rec.get()}, r.trace);
  return r;
}

TEST(ShardedSwarm, WorkloadActuallyRuns) {
  const RunResult r = run_sharded(2, 2);
  std::uint64_t total_ok = 0;
  for (std::uint64_t ok : r.member_ok) total_ok += ok;
  EXPECT_GT(total_ok, 50u) << "swarm should complete plenty of lock/release ops";
  EXPECT_GT(r.net.delivered, 0u);
  EXPECT_FALSE(r.trace.empty());
}

TEST(ShardedSwarm, BitIdenticalAcrossWorkerThreadCounts) {
  const RunResult t1 = run_sharded(2, 1);
  const RunResult t2 = run_sharded(2, 2);
  const RunResult t8 = run_sharded(2, 8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(ShardedSwarm, BitIdenticalAcrossRepeats) {
  const RunResult a = run_sharded(3, 3);
  const RunResult b = run_sharded(3, 3);
  EXPECT_EQ(a, b);
}

TEST(ShardedSwarm, SingleShardMatchesPlainSerialStack) {
  const RunResult sharded = run_sharded(1, 1);
  const RunResult plain = run_plain_serial();
  std::uint64_t plain_ok = 0;
  for (std::uint64_t ok : plain.member_ok) plain_ok += ok;
  EXPECT_GT(plain_ok, 50u);
  EXPECT_EQ(sharded, plain);
}

// Arming the counter registry and the watchdog changes NOTHING the
// determinism digest folds — same member op outcomes, same NetStats, same
// events_executed, same recorded trace — at every worker thread count.
// Counters observe; they never schedule or draw. The armed runs must really
// take the snapshot barrier pair and run the watchdog: a non-zero imbalance
// gauge proves a snapshot ran.
TEST(ShardedSwarm, InstrumentedRunBitIdenticalToDark) {
  const RunResult dark = run_sharded(2, 2, /*telemetry=*/false);
  for (unsigned threads : {1u, 2u, 8u}) {
    workload::Scenario sc(swarm_config(2, threads, /*telemetry=*/true));
    EXPECT_EQ(dark, run_scenario(sc)) << threads << " threads";
    EXPECT_GE(counter(sc, "engine.windows"), kMinSnapshots * 2048) << threads << " threads";
    EXPECT_GT(counter(sc, "engine.imbalance_permille"), 0u) << threads << " threads";
  }
}

// At K = 1 the armed engine books its counters on the serial fast path and
// the run still equals the plain serial stack.
TEST(ShardedSwarm, InstrumentedK1FastPathMatchesPlainSerial) {
  workload::Scenario sc(swarm_config(1, 1, /*telemetry=*/true));
  const RunResult armed = run_scenario(sc);
  const RunResult plain = run_plain_serial();
  EXPECT_EQ(armed, plain);
  ASSERT_NE(sc.shard_counters(), nullptr);
  EXPECT_EQ(counter(sc, "engine.events"), armed.events_executed);
}

TEST(ShardedScenario, RunsEndToEndWithConsistentVerdict) {
  workload::Scenario sc(swarm_config(2, 2, /*telemetry=*/false));
  const workload::ScenarioResult r = sc.run();
  EXPECT_EQ(r.verdict_line().rfind("verdict: CONSISTENT", 0), 0u) << r.verdict_line();
  EXPECT_GT(r.reads_ok, 0u);
  EXPECT_GT(r.writes_ok, 0u);

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < sc.num_clients(); ++i) {
    reads += sc.client_ops(i).reads_ok;
    writes += sc.client_ops(i).writes_ok;
    failed += sc.client_ops(i).failed;
  }
  EXPECT_EQ(reads, r.reads_ok);
  EXPECT_EQ(writes, r.writes_ok);
  EXPECT_EQ(failed, r.ops_failed);

  ASSERT_EQ(sc.num_servers(), 2u);
  for (std::size_t j = 0; j < sc.num_servers(); ++j) {
    EXPECT_TRUE(sc.server(j).locks().invariants_hold()) << "server " << j;
    EXPECT_GT(sc.server(j).counters().lock_grants, 0u) << "server " << j;
  }
}

// Every shard hosts N/K clients beside its server, so with telemetry armed
// the shard-imbalance gauge stays under the watchdog's 1.25x band and the
// run ends with zero trips. A placement that leaves a shard with only its
// server (all clients on odd shards at even K read 1.74-1.9) trips it.
TEST(ShardedScenario, BalancedPlacementTripsNoWatchdog) {
  workload::ScenarioConfig cfg = swarm_config(2, 2, /*telemetry=*/true);
  cfg.workload.num_clients = kBalancedClients;
  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_generators();
  sc.run_until_s(kRunS);

  ASSERT_NE(sc.watchdog(), nullptr);
  ASSERT_NE(sc.shard_counters(), nullptr);
  const obs::Counters& ctr = *sc.shard_counters();
  const std::uint64_t imbalance = ctr.merged(ctr.find("engine.imbalance_permille"));
  EXPECT_GT(imbalance, 1000u);
  EXPECT_LT(imbalance, kBalancedMaxPermille);
  EXPECT_EQ(sc.watchdog()->trips(), 0u) << "imbalance peaked at " << imbalance << " permille";
}

TEST(ShardedScenarioDeathTest, DataPatternNeedsOneShard) {
  workload::ScenarioConfig cfg = swarm_config(2, 1, false);
  cfg.workload.pattern = workload::Pattern::kRandomZipf;
  EXPECT_DEATH({ workload::Scenario sc(cfg); }, "kLockCycle");
}

TEST(ShardedScenarioDeathTest, FailurePlanNeedsOneShard) {
  workload::ScenarioConfig cfg = swarm_config(2, 1, false);
  cfg.failures.add(1.0, workload::FailureKind::kCtrlIsolate, 0);
  EXPECT_DEATH({ workload::Scenario sc(cfg); }, "kLockCycle");
}

}  // namespace
}  // namespace stank
