// bench_swarm — simulator scaling curves for one-server swarms and for the
// sharded parallel engine, both run as workload::Scenario configs with the
// kLockCycle pattern.
//
// Part 1 (serial): client count N = 100 … 50,000 with one server on one
// shard. Each swarm member registers with the server, opens a Zipf-chosen
// file from a weak-scaled pool (512 files up to N=51k, N/100 beyond), and
// then loops: acquire a data lock (mostly shared, occasionally exclusive),
// release it, sleep an exponential gap. A short tau keeps a renewal storm
// running underneath the lock traffic. This is the mix the paper's
// deployment sizing question asks about: how much simulator (and per-client
// protocol) capacity does one server's swarm cost as N grows?
//
// Part 2 (sharded): the same workload at N up to 1,000,000 on K ∈ {1, 2, 4,
// 8} shards. K servers (server j on shard j); client i talks to server
// i mod K and lives on shard (i + i/K) mod K, so every shard hosts N/K
// clients, roughly 1/K of the traffic is shard-local and the rest crosses
// shards through the mailbox exchange. The wall-speedup-vs-K column is the
// scaling curve; the run digest (FNV over per-member op counts, net
// counters, and event totals) pins the determinism contract — a fixed
// (seed, K) must print the same digest at any worker-thread count, on every
// run.
//
// wall ns/op is the measured window's wall time over the ops completed in
// that window; wall speedup is K=1's wall ns/op over the row's. Event
// throughput is not reported: batching and sharding change the event count
// per op, so it rewards executing more events rather than finishing ops
// sooner.
//
// Hard gates (exit 1): the lock manager's invariants on every server after
// every measured window, bytes/client at or under kBytesPerClientBound on
// every point, and zero watchdog trips across the sharded sweep.
//
// Environment knobs (all strictly validated; a malformed value aborts with
// exit code 2 rather than silently running the wrong sweep):
//   STANK_SWARM_NS        comma-separated serial Ns       (default 100,1000,10000,50000)
//   STANK_SWARM_N_SHARDED single sharded N                (default 1000000)
//   STANK_SWARM_KS        comma-separated shard counts    (default 1,2,4,8)
//   STANK_SWARM_THREADS   worker threads for sharded runs (default: one per shard)
//   STANK_SWARM_TELEMETRY 0 disables the per-shard counter registry and
//                         watchdog (the overhead-gate A/B switch; default on).
//                         Arming MUST NOT change the digest — counters add no
//                         engine events and draw no randomness.
#include <algorithm>
#include <chrono>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "obs/counters.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

constexpr std::size_t kFilePool = 512;

// The pool weak-scales with the swarm so per-file contention stays bounded
// near the serial sweep's densest point (~100 clients/file at N=50k). The
// same pool serves every K at a fixed N, so the Zipf draws — and therefore
// the offered workload — are identical across the K curve; only the
// partitioning changes. For N <= ~51k this is exactly kFilePool.
std::size_t pool_for(std::uint32_t n) {
  return std::max<std::size_t>(kFilePool, n / 100);
}
constexpr double kWarmS = 3.0;     // registration + opens finish well before this
constexpr double kMeasureS = 8.0;  // measured steady window

// Control-network bytes per client over the measured window. The figure is
// deterministic per (seed, N, K), so the gate cannot flake. The bound is the
// largest reading of the default sweep (831 B at N=1M, K=1) plus 10%; a change
// that moves per-client traffic re-measures it and resets the bound.
constexpr double kBytesPerClientBound = 914;

// ---------------------------------------------------------------------------
// Environment parsing. The old parser fed strtoul whatever it found and
// silently dropped empty tokens, so STANK_SWARM_NS=100;1000 (wrong separator)
// quietly benchmarked N=100 only. Every token must now be pure digits with a
// sane value, or the bench refuses to run.

[[noreturn]] void die_env(const char* name, const std::string& value, const char* why) {
  std::fprintf(stderr, "bench_swarm: bad %s=\"%s\": %s\n", name, value.c_str(), why);
  std::exit(2);
}

std::uint32_t parse_u32_token(const char* name, const std::string& whole,
                              const std::string& tok) {
  if (tok.empty()) die_env(name, whole, "empty element (stray or trailing comma?)");
  for (char c : tok) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      die_env(name, whole, "elements must be plain decimal integers");
    }
  }
  errno = 0;
  const unsigned long v = std::strtoul(tok.c_str(), nullptr, 10);
  if (errno != 0 || v == 0 || v > 100'000'000ul) {
    die_env(name, whole, "elements must be in [1, 100000000]");
  }
  return static_cast<std::uint32_t>(v);
}

// Parses a comma-separated list of u32s from the environment; returns
// `fallback` when the variable is unset.
std::vector<std::uint32_t> env_u32_list(const char* name, std::vector<std::uint32_t> fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string s(env);
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        comma == std::string::npos ? s.substr(pos) : s.substr(pos, comma - pos);
    out.push_back(parse_u32_token(name, s, tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) die_env(name, s, "expected at least one element");
  return out;
}

std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string s(env);
  if (s.find(',') != std::string::npos) die_env(name, s, "expected a single integer, not a list");
  return parse_u32_token(name, s, s);
}

// ---------------------------------------------------------------------------
// The swarm installation as a Scenario config.

workload::ScenarioConfig swarm_config(std::uint32_t n, std::uint32_t k, std::uint32_t threads,
                                      bool telemetry) {
  workload::ScenarioConfig cfg;
  workload::WorkloadSpec& w = cfg.workload;
  w.pattern = workload::Pattern::kLockCycle;
  w.num_clients = n;
  w.num_files = static_cast<std::uint32_t>(pool_for(n));
  w.file_blocks = 1;
  w.zipf_s = 0.9;
  w.read_fraction = 0.95;        // 5% exclusive locks
  w.mean_interarrival_s = 2.0;   // think time between cycles
  w.run_seconds = kWarmS + kMeasureS;
  // Same seed for every K so the workload (per-member gaps, Zipf choices) is
  // identical across the curve; only the partitioning changes.
  w.seed = 0x5Aa3F00Du ^ n;
  cfg.lease.tau = sim::local_seconds(2);  // renewal storm under the lock traffic
  // 8 in-flight-window entries per session keeps the million-client server's
  // reply-cache footprint bounded (the default 128 would cost gigabytes).
  cfg.transport.reply_cache_size = 8;
  cfg.block_size = 4096;
  cfg.disk_blocks = pool_for(n) * 16;
  cfg.clock_skew_mode = +2;  // ideal clocks
  cfg.engine.shards = k;
  cfg.engine.threads = threads;
  cfg.shard_telemetry = telemetry;
  return cfg;
}

struct SwarmPoint {
  std::uint32_t n;
  std::uint32_t k;
  std::uint32_t threads;
  double wall_s;
  std::uint64_t sim_events;
  double wall_ns_per_op;  // measured-window wall time / ops completed in it
  double bytes_per_client;
  std::uint64_t ops_ok;
  std::uint64_t ops_failed;
  std::uint64_t digest;
  // Telemetry columns (zero when the registry is dark or K == 1).
  bool telemetry{false};
  double imbalance_permille{0.0};  // max/mean shard events, x1000
  std::uint64_t mailbox_hw{0};     // deepest SPSC mailbox seen
  std::uint64_t barrier_p50_ns{0};
  std::uint64_t barrier_p99_ns{0};
  std::uint64_t watchdog_trips{0};
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

std::uint64_t total_ops_ok(const workload::Scenario& sc) {
  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < sc.num_clients(); ++i) {
    ok += sc.client_ops(i).reads_ok + sc.client_ops(i).writes_ok;
  }
  return ok;
}

SwarmPoint run_swarm(std::uint32_t n, std::uint32_t k, std::uint32_t threads, bool telemetry) {
  workload::Scenario sc(swarm_config(n, k, threads, telemetry));
  sc.setup();
  sc.run_generators();
  sc.run_until_s(kWarmS);

  sim::ShardedEngine& engine = sc.sharded_engine();
  const std::uint64_t events0 = engine.events_executed();
  const std::uint64_t bytes0 = sc.sharded_net().stats().bytes;
  const std::uint64_t ops0 = total_ops_ok(sc);
  const auto wall0 = std::chrono::steady_clock::now();
  sc.run_until_s(kWarmS + kMeasureS);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

  for (std::size_t j = 0; j < sc.num_servers(); ++j) {
    if (!sc.server(j).locks().invariants_hold()) {
      std::fprintf(stderr, "bench_swarm: lock manager invariants broken on server %zu (N=%u, K=%u)\n",
                   j, n, k);
      std::exit(1);
    }
  }

  SwarmPoint p;
  p.n = n;
  p.k = k;
  p.threads = threads;
  p.wall_s = wall;
  p.sim_events = engine.events_executed() - events0;
  const net::NetStats st = sc.sharded_net().stats();
  p.bytes_per_client = static_cast<double>(st.bytes - bytes0) / n;
  p.ops_ok = 0;
  p.ops_failed = 0;
  // The digest folds in every member's op counts in index order plus the
  // aggregate network counters: any nondeterminism in event order anywhere in
  // the run shows up here as a different hex string.
  std::uint64_t digest = 14695981039346656037ull;
  for (std::size_t i = 0; i < sc.num_clients(); ++i) {
    const workload::ClientOps& ops = sc.client_ops(i);
    const std::uint64_t ok = ops.reads_ok + ops.writes_ok;
    p.ops_ok += ok;
    p.ops_failed += ops.failed;
    digest = fnv_mix(digest, ok);
    digest = fnv_mix(digest, ops.failed);
  }
  const std::uint64_t window_ops = p.ops_ok - ops0;
  p.wall_ns_per_op = window_ops > 0 ? wall * 1e9 / static_cast<double>(window_ops) : 0.0;
  digest = fnv_mix(digest, st.sent);
  digest = fnv_mix(digest, st.delivered);
  digest = fnv_mix(digest, st.bytes);
  digest = fnv_mix(digest, engine.events_executed());
  p.digest = digest;

  // K = 1 takes no barrier snapshots: its telemetry columns stay blank.
  if (const obs::Counters* ctr = sc.shard_counters(); ctr != nullptr && k > 1) {
    p.telemetry = true;
    const obs::Counters::HistId id_bwait = ctr->find_hist("barrier.wait_ns");
    p.imbalance_permille =
        static_cast<double>(ctr->merged(ctr->find("engine.imbalance_permille")));
    p.mailbox_hw = ctr->merged(ctr->find("net.mailbox_hw"));
    p.barrier_p50_ns = ctr->hist_quantile(id_bwait, 0.50);
    p.barrier_p99_ns = ctr->hist_quantile(id_bwait, 0.99);
    p.watchdog_trips = sc.watchdog()->trips();
  }
  return p;
}

// Reports a point over the bytes/client bound on stderr; returns whether the
// point is within it.
bool bytes_ok(const SwarmPoint& p) {
  if (p.bytes_per_client <= kBytesPerClientBound) return true;
  std::fprintf(stderr, "bench_swarm: %.0f bytes/client at N=%u, K=%u exceeds the bound %.0f\n",
               p.bytes_per_client, p.n, p.k, kBytesPerClientBound);
  return false;
}

}  // namespace

int main() {
  std::printf("Swarm scaling: one server, N clients of renewal-storm + Zipf lock traffic\n\n");
  bool gates_ok = true;

  Table tbl({"N clients", "sim events", "wall (s)", "wall ns/op", "bytes/client", "ops ok",
             "ops failed"});
  tbl.title("8 s measured window; tau = 2 s; Zipf(0.9) over pool_for(N) files; 5% exclusive");
  for (std::uint32_t n : env_u32_list("STANK_SWARM_NS", {100, 1000, 10000, 50000})) {
    const SwarmPoint p = run_swarm(n, 1, 1, /*telemetry=*/false);
    gates_ok = bytes_ok(p) && gates_ok;
    tbl.row()
        .cell(p.n)
        .cell(p.sim_events)
        .cell(p.wall_s, 2)
        .cell(p.wall_ns_per_op, 0)
        .cell(p.bytes_per_client, 0)
        .cell(p.ops_ok)
        .cell(p.ops_failed);
  }
  tbl.print(std::cout);

  std::printf(
      "\nReading: wall ns/op is what one simulated client op costs in wall time at that\n"
      "swarm size — flat means per-op cost does not degrade with population (batched\n"
      "delivery, pooled timer slots). bytes/client is per-client protocol overhead over\n"
      "the window and should be roughly constant: the lease protocol's cost scales with\n"
      "N, not N^2.\n\n");

  const std::uint32_t sharded_n = env_u32("STANK_SWARM_N_SHARDED", 1'000'000);
  const std::uint32_t threads_override = env_u32("STANK_SWARM_THREADS", 0xFFFFFFFFu);
  const std::vector<std::uint32_t> ks = env_u32_list("STANK_SWARM_KS", {1, 2, 4, 8});
  const char* tel_env = std::getenv("STANK_SWARM_TELEMETRY");
  const bool telemetry = tel_env == nullptr || std::string(tel_env) != "0";

  std::printf("Sharded engine: N=%u clients, K servers/shards, conservative 10 us windows\n",
              sharded_n);
  std::printf("Telemetry: %s (STANK_SWARM_TELEMETRY=0 to disable; must not change digests)\n\n",
              telemetry ? "counters + watchdog armed" : "dark");
  std::vector<SwarmPoint> points;
  double base_ns_per_op = 0.0;  // K=1's wall ns/op; 0 when the sweep has no K=1
  for (std::uint32_t k : ks) {
    const std::uint32_t threads = threads_override != 0xFFFFFFFFu ? threads_override : k;
    points.push_back(run_swarm(sharded_n, k, threads, telemetry));
    if (k == 1) base_ns_per_op = points.back().wall_ns_per_op;
  }

  Table stbl({"K", "threads", "sim events", "wall (s)", "wall ns/op", "wall speedup",
              "bytes/client", "ops ok", "ops failed", "imb", "mbox hw", "bar p50us",
              "bar p99us", "digest"});
  stbl.title("client i -> server i%K, shard (i+i/K)%K: N/K per shard, ~1/K co-located");
  std::uint64_t total_trips = 0;
  for (const SwarmPoint& p : points) {
    gates_ok = bytes_ok(p) && gates_ok;
    char digest_hex[24];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(p.digest));
    auto& row = stbl.row()
                    .cell(p.k)
                    .cell(p.threads)
                    .cell(p.sim_events)
                    .cell(p.wall_s, 2)
                    .cell(p.wall_ns_per_op, 0);
    if (base_ns_per_op > 0 && p.wall_ns_per_op > 0) {
      row.cell(base_ns_per_op / p.wall_ns_per_op, 2);
    } else {
      row.cell("-");
    }
    row.cell(p.bytes_per_client, 0).cell(p.ops_ok).cell(p.ops_failed);
    if (p.telemetry) {
      row.cell(p.imbalance_permille / 1000.0, 2)
          .cell(p.mailbox_hw)
          .cell(static_cast<double>(p.barrier_p50_ns) / 1e3, 1)
          .cell(static_cast<double>(p.barrier_p99_ns) / 1e3, 1);
    } else {
      row.cell("-").cell("-").cell("-").cell("-");
    }
    row.cell(digest_hex);
    total_trips += p.watchdog_trips;
  }
  stbl.print(std::cout);

  std::printf(
      "\nReading: wall speedup is K=1's wall ns/op over the row's on the same workload\n"
      "('-' when the sweep has no K=1). The digest is the determinism witness: a fixed\n"
      "(seed, K) must print the same value on every run at every worker-thread count —\n"
      "armed or dark. imb is max/mean shard events between snapshots (1.00 = perfectly\n"
      "balanced); mbox hw is the deepest SPSC mailbox; bar p50/p99 are barrier wait\n"
      "quantiles per crossing.\n");
  if (total_trips > 0) {
    std::fprintf(stderr, "WATCHDOG: %llu invariant probe trip(s) during the sweep\n",
                 static_cast<unsigned long long>(total_trips));
    gates_ok = false;
  }
  return gates_ok ? 0 : 1;
}
