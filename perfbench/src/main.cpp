// stank_perf — the repository's benchmark workloads.
//
//   stank_perf --workload NAME --seed N --seconds S [--max-reps R]
//
// Runs one workload, built from the seed, over and over (a "rep" builds the
// whole simulated installation from scratch, measures it, and tears it down)
// until S seconds of wall time are spent, and prints one JSON line with the
// end-to-end metrics (medians over reps for wall-clock figures), the run's
// correctness verdict, and a determinism digest. Every rep must produce the
// same digest: the simulation is deterministic for a seed, so a differing
// rep is a bug, not noise. Built as stank_perf_traced, the same program also
// prints the per-layer ledger (see ledger.hpp and wrap.cpp).
//
// Workloads:
//   swarm-renewal     one server, 50k clients, tau = 2 s renewal storm under
//                     Zipf(0.9) lock/release traffic over 512 files, serial
//                     engine, no data I/O
//   io-shared-faults  workload::Scenario, 128 clients reading and writing
//                     shared files (70/30, Zipf 0.8) with the consistency
//                     checker on and a fixed failure plan: a partition longer
//                     than tau, an asymmetric sever, a partition shorter than
//                     tau and a client crash with restart
//   sharded-k4        the swarm mix at 100k clients on sim::ShardedEngine
//                     with 4 shards and 4 servers, windows run by one worker
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "net/control_net.hpp"
#include "net/sharded_net.hpp"
#include "obs/counters.hpp"
#include "server/server.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_engine.hpp"
#include "storage/san.hpp"
#include "trace_hooks.hpp"
#include "workload/scenario.hpp"

using namespace stank;
using perfbench::kLayers;
using perfbench::Layer;
using perfbench::Probe;
namespace trace = perfbench::trace;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Nearest-rank quantile of an unsorted sample (copied, then partially sorted).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Digest {
  std::uint64_t h{14695981039346656037ull};
  void add(std::uint64_t v) { h = (h ^ v) * 1099511628211ull; }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

void digest_net(Digest& d, const net::NetStats& s) {
  for (std::uint64_t v : {s.sent, s.delivered, s.dropped_partition, s.dropped_random,
                          s.dropped_burst, s.dropped_detached, s.duplicated, s.bytes}) {
    d.add(v);
  }
}

void digest_san(Digest& d, const storage::SanStats& s) {
  for (std::uint64_t v : {s.ios_submitted, s.ios_completed, s.ios_failed_partition,
                          s.ios_failed_fenced, s.admin_ops, s.bytes_transferred}) {
    d.add(v);
  }
}

void digest_counters(Digest& d, const metrics::Counters& c) {
  for (std::uint64_t v :
       {c.requests_sent, c.acks_sent, c.nacks_sent, c.server_msgs_sent, c.client_acks_sent,
        c.retransmissions, c.lease_only_msgs, c.lease_ops, c.lock_grants, c.lock_demands,
        c.lock_steals, c.reply_cache_hits, c.fences_issued, c.fence_retries, c.transactions}) {
    d.add(v);
  }
}

std::uint64_t net_drops(const net::NetStats& s) {
  return s.dropped_partition + s.dropped_random + s.dropped_burst + s.dropped_detached;
}

metrics::Counters counters_delta(const metrics::Counters& end, const metrics::Counters& start) {
  metrics::Counters d;
  d.requests_sent = end.requests_sent - start.requests_sent;
  d.acks_sent = end.acks_sent - start.acks_sent;
  d.nacks_sent = end.nacks_sent - start.nacks_sent;
  d.server_msgs_sent = end.server_msgs_sent - start.server_msgs_sent;
  d.client_acks_sent = end.client_acks_sent - start.client_acks_sent;
  d.retransmissions = end.retransmissions - start.retransmissions;
  d.lease_only_msgs = end.lease_only_msgs - start.lease_only_msgs;
  d.lease_ops = end.lease_ops - start.lease_ops;
  d.lock_grants = end.lock_grants - start.lock_grants;
  d.lock_demands = end.lock_demands - start.lock_demands;
  d.lock_steals = end.lock_steals - start.lock_steals;
  d.reply_cache_hits = end.reply_cache_hits - start.reply_cache_hits;
  d.fences_issued = end.fences_issued - start.fences_issued;
  d.fence_retries = end.fence_retries - start.fence_retries;
  d.transactions = end.transactions - start.transactions;
  d.server_data_bytes = end.server_data_bytes - start.server_data_bytes;
  return d;
}

// ---------------------------------------------------------------------------
// What one rep measures. Counts are deterministic for a seed; times are not.
// Every count is a delta over the measured phase.

struct PhaseCounts {
  std::uint64_t ops_ok{0};
  std::uint64_t ops_failed{0};
  std::uint64_t events{0};
  std::uint64_t queue_depth_max{0};
  std::uint64_t datagrams{0};
  std::uint64_t ctrl_bytes{0};
  std::uint64_t drops{0};
  std::uint64_t san_ios{0};
  std::uint64_t san_bytes{0};
  metrics::Counters server;   // summed over servers
  metrics::Counters clients;  // summed over clients
  std::uint64_t lease_expiries{0};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t fenced_rejects{0};
  std::uint64_t lease_state_bytes_max{0};
  std::uint64_t history_records{0};
  double imbalance{1.0};  // max/mean executed events per shard
};

// Parallel-runtime gauges, read from the sharded engine's counter registry
// (traced runs of sharded-k4 only).
struct RtGauges {
  double barrier_wait_ns{0.0};
  double cross_shard_frac{0.0};
  double idle_window_frac{0.0};
};

struct Rep {
  double setup_s{0.0};
  double phase_wall_s{0.0};
  // Wall time the phase spent inside calls into the library; the rest is the
  // benchmark's own bookkeeping (the ledger's unattributed time).
  double inside_s{0.0};
  double check_s{0.0};  // consistency checker (io-shared-faults)
  std::vector<double> slice_ms;
  std::vector<double> latency_ms;  // simulated, per completed op in the phase
  PhaseCounts c;
  RtGauges rt;
  bool sharded{false};
  std::uint64_t digest{0};
  bool correct{true};
  std::string why;
  trace::PhaseLedger ledger;

  void fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

// Times one call into the library and books it as inside-phase time.
template <typename F>
double timed(Rep& rep, F&& f) {
  const auto t0 = Clock::now();
  f();
  const double s = seconds_since(t0);
  rep.inside_s += s;
  return s;
}

// ---------------------------------------------------------------------------
// The swarm op mix (swarm-renewal and sharded-k4): each member registers,
// opens one Zipf-chosen file of the pool, then loops lock (5% exclusive) ->
// release -> exponential think time. One op = one lock/release pair.

constexpr std::uint32_t kServerNode = 1;
constexpr std::uint32_t kClientBase = 100;
constexpr double kMeanGapS = 2.0;
constexpr double kExclusiveProb = 0.05;

core::LeaseConfig swarm_lease() {
  core::LeaseConfig lease;
  lease.tau = sim::local_seconds(2);
  return lease;
}

protocol::TransportConfig swarm_transport() {
  protocol::TransportConfig t;
  t.reply_cache_size = 8;  // bounds the server's per-session reply cache
  return t;
}

struct Member {
  std::unique_ptr<client::Client> cl;
  client::Fd fd{0};
  sim::Rng rng{0};
  bool ready{false};
  unsigned shard{0};
  sim::SimTime issued{};
  std::uint64_t ops_ok{0};
  std::uint64_t ops_failed{0};
};

// Per-shard phase tallies: a member is only ever touched by its shard's
// worker, so each shard writes its own slot without synchronization.
struct alignas(64) ShardTally {
  std::uint64_t ops_ok{0};
  std::uint64_t ops_failed{0};
  std::vector<double> latency_ms;
};

struct SwarmLoop {
  std::vector<Member>* members;
  std::vector<ShardTally>* tally;
  const sim::ZipfTable* zipf;
  std::vector<sim::Engine*> engines;  // per shard
  sim::SimTime phase_start{sim::Engine::kNever};

  sim::Engine& engine_of(const Member& m) { return *engines[m.shard]; }

  void open_file(std::size_t idx) {
    // Reached from the client's on_registered hook.
    const trace::WorkloadSpan span;
    Member& m = (*members)[idx];
    char path[24];
    std::snprintf(path, sizeof(path), "f%zu", zipf->pick(m.rng.uniform()));
    m.cl->open(path, /*create=*/false, [this, idx](Result<client::Fd> res) {
      Member& m2 = (*members)[idx];
      if (!res.ok()) {
        ++m2.ops_failed;
        engine_of(m2).schedule_after(sim::millis(200), [this, idx]() { open_file(idx); });
        return;
      }
      m2.fd = res.value();
      if (!m2.ready) {
        m2.ready = true;
        schedule_next(idx);
      }
    });
  }

  void schedule_next(std::size_t idx) {
    Member& m = (*members)[idx];
    const double gap = m.rng.exponential(kMeanGapS);
    engine_of(m).schedule_after(sim::seconds_d(gap), [this, idx]() { op(idx); });
  }

  void finish_op(std::size_t idx, bool ok) {
    Member& m = (*members)[idx];
    sim::Engine& e = engine_of(m);
    ShardTally& t = (*tally)[m.shard];
    if (ok) {
      ++m.ops_ok;
    } else {
      ++m.ops_failed;
    }
    if (e.now() >= phase_start) {
      if (ok) {
        ++t.ops_ok;
        t.latency_ms.push_back((e.now() - m.issued).millis());
      } else {
        ++t.ops_failed;
      }
    }
    schedule_next(idx);
  }

  void op(std::size_t idx) {
    Member& m = (*members)[idx];
    m.issued = engine_of(m).now();
    const auto mode = m.rng.uniform() < kExclusiveProb ? protocol::LockMode::kExclusive
                                                       : protocol::LockMode::kShared;
    m.cl->lock(m.fd, mode, [this, idx](Status st) {
      if (!st.is_ok()) {
        finish_op(idx, false);
        return;
      }
      Member& m2 = (*members)[idx];
      m2.cl->release(m2.fd, protocol::LockMode::kNone,
                     [this, idx](Status st2) { finish_op(idx, st2.is_ok()); });
    });
  }
};

void preallocate_pool(server::Server& server, std::size_t pool) {
  for (std::size_t f = 0; f < pool; ++f) {
    char path[24];
    std::snprintf(path, sizeof(path), "f%zu", f);
    if (!server.preallocate(path, 4096).ok()) {
      std::fprintf(stderr, "stank_perf: preallocate(%s) failed\n", path);
      std::exit(1);
    }
  }
}

client::ClientConfig member_config(std::uint32_t i, std::uint32_t server) {
  client::ClientConfig c;
  c.id = NodeId{kClientBase + i};
  c.server = NodeId{kServerNode + server};
  c.lease = swarm_lease();
  c.transport = swarm_transport();
  c.block_size = 4096;
  return c;
}

server::ServerConfig server_config(std::uint32_t j) {
  server::ServerConfig s;
  s.id = NodeId{kServerNode + j};
  s.lease = swarm_lease();
  s.transport = swarm_transport();
  s.block_size = 4096;
  s.data_disks = {DiskId{1}};
  return s;
}

// Swarm shape shared by the serial and the sharded workload.
struct SwarmSpec {
  std::uint32_t clients;
  std::uint32_t shards;   // 0 = serial sim::Engine, else sim::ShardedEngine
  std::size_t pool;       // Zipf(0.9) file pool
  double phase_s;         // measured simulated seconds
  std::uint32_t slices;
};

// The swarm installation. Serial (shards == 0) builds one Engine and one
// ControlNet; sharded builds a ShardedEngine with K servers, server j on
// shard j, client i talking to server i % K and living on shard
// (i + i / K) % K, so every shard hosts N / K clients and 1 / K of them share
// a shard with their server.
struct Swarm {
  SwarmSpec spec;
  std::unique_ptr<sim::Engine> serial;
  std::unique_ptr<sim::ShardedEngine> sharded;
  std::unique_ptr<net::ControlNet> net1;
  std::unique_ptr<net::ShardedNet> netk;
  std::vector<std::unique_ptr<storage::SanFabric>> sans;
  std::vector<std::unique_ptr<server::Server>> servers;
  std::vector<Member> members;
  std::vector<ShardTally> tally;
  std::unique_ptr<sim::ZipfTable> zipf;
  SwarmLoop loop;
  obs::Counters ctr;  // sharded-engine telemetry (traced runs only)
  bool telemetry{false};

  unsigned shard_count() const { return spec.shards == 0 ? 1 : spec.shards; }
  sim::Engine& engine(unsigned s) { return spec.shards == 0 ? *serial : sharded->shard(s); }
  net::ControlNet& net(unsigned s) { return spec.shards == 0 ? *net1 : netk->shard(s); }

  void run_until(sim::SimTime t) {
    if (spec.shards == 0) {
      serial->run_until(t);
    } else {
      sharded->run_until(t);
    }
  }
  sim::SimTime now() const { return spec.shards == 0 ? serial->now() : sharded->now(); }
  std::uint64_t events() const {
    return spec.shards == 0 ? serial->events_executed() : sharded->events_executed();
  }
  net::NetStats net_stats() const {
    return spec.shards == 0 ? net1->stats() : netk->stats();
  }
  storage::SanStats san_stats() const {
    storage::SanStats t;
    for (const auto& s : sans) {
      const storage::SanStats& x = s->stats();
      t.ios_submitted += x.ios_submitted;
      t.ios_completed += x.ios_completed;
      t.ios_failed_partition += x.ios_failed_partition;
      t.ios_failed_fenced += x.ios_failed_fenced;
      t.admin_ops += x.admin_ops;
      t.bytes_transferred += x.bytes_transferred;
    }
    return t;
  }
  metrics::Counters server_counters() const {
    metrics::Counters t;
    for (const auto& s : servers) t += s->counters();
    return t;
  }
  metrics::Counters client_counters() const {
    metrics::Counters t;
    for (const Member& m : members) t += m.cl->counters();
    return t;
  }
  std::uint64_t lease_expiries() const {
    std::uint64_t t = 0;
    for (const Member& m : members) {
      if (m.cl->lease_agent() != nullptr) t += m.cl->lease_agent()->expiries();
    }
    return t;
  }
  std::uint64_t queue_depth() {
    std::uint64_t d = 0;
    for (unsigned s = 0; s < shard_count(); ++s) d += engine(s).queue_depth();
    return d;
  }
  std::uint64_t lease_state_bytes() const {
    std::uint64_t b = 0;
    for (const auto& s : servers) b += s->lease_state_bytes();
    return b;
  }

  void build(std::uint64_t seed) {
    const unsigned k = shard_count();
    sim::Rng root(seed * 0x9E3779B97F4A7C15ull ^ spec.clients);
    if (spec.shards == 0) {
      serial = std::make_unique<sim::Engine>();
      net1 = std::make_unique<net::ControlNet>(*serial, root.fork(1));
    } else {
      sim::ShardedEngine::Config ecfg;
      ecfg.shards = k;
      // One worker runs every shard's windows in turn. With one worker per
      // shard on a 4-vCPU host, CPU time the hypervisor steals from any
      // worker stalls all of them at the next window barrier: wall time per
      // op ranged over 3x across ten runs (single reps up to 12x), too wide
      // to compare commits by. One worker keeps the window loop, barrier
      // and mailbox exchange in the measurement without that amplifier.
      ecfg.threads = 1;
      sharded = std::make_unique<sim::ShardedEngine>(ecfg);
      netk = std::make_unique<net::ShardedNet>(*sharded, root.fork(1));
      if (trace::enabled()) {
        // The registry adds no engine events and draws no randomness, so a
        // traced run keeps the untraced run's digest.
        telemetry = true;
        sim::ShardedEngine::Telemetry tel;
        tel.counters = &ctr;
        tel.snapshot_every_windows = 0;
        sharded->set_telemetry(std::move(tel));
        netk->set_counters(&ctr);
        ctr.freeze(k);
      }
    }
    for (unsigned j = 0; j < k; ++j) {
      sans.push_back(std::make_unique<storage::SanFabric>(engine(j), root.fork(2 + j)));
      sans.back()->add_disk(DiskId{1}, /*blocks=*/spec.pool * 16, /*block_size=*/4096);
      if (netk) netk->place(NodeId{kServerNode + j}, j);
    }
    for (unsigned j = 0; j < k; ++j) {
      servers.push_back(std::make_unique<server::Server>(engine(j), net(j), *sans[j],
                                                         sim::LocalClock(1.0), server_config(j)));
      preallocate_pool(*servers.back(), spec.pool);
      servers.back()->start();
    }
    members.resize(spec.clients);
    tally.resize(k);
    // Room for every phase op, so recording latencies never reallocates
    // while the clock runs.
    const auto expected_ops =
        static_cast<std::size_t>(2.0 * spec.phase_s / kMeanGapS * spec.clients / k);
    for (ShardTally& t : tally) t.latency_ms.reserve(expected_ops);
    zipf = std::make_unique<sim::ZipfTable>(spec.pool, 0.9);
    loop.members = &members;
    loop.tally = &tally;
    loop.zipf = zipf.get();
    for (unsigned s = 0; s < k; ++s) loop.engines.push_back(&engine(s));
    for (std::uint32_t i = 0; i < spec.clients; ++i) {
      const unsigned shard = (i + i / k) % k;
      if (netk) netk->place(NodeId{kClientBase + i}, shard);
      Member& m = members[i];
      m.shard = shard;
      m.rng = root.fork(1000 + i);
      m.cl = std::make_unique<client::Client>(engine(shard), net(shard), *sans[shard],
                                              sim::LocalClock(1.0), member_config(i, i % k));
      // Registration is spread over the first second: a ramp, not a herd.
      const double start_at = 0.001 + 0.999 * m.rng.uniform();
      m.cl->on_registered = [this, i]() { loop.open_file(i); };
      engine(shard).schedule_after(sim::seconds_d(start_at),
                                   [this, i]() { members[i].cl->start(); });
    }
  }

  bool all_ready() const {
    return std::all_of(members.begin(), members.end(), [](const Member& m) { return m.ready; });
  }
};

std::uint64_t rt_counter(const obs::Counters& ctr, const char* name) {
  return ctr.merged(ctr.find(name));
}

Rep run_swarm(const SwarmSpec& spec, std::uint64_t seed) {
  Rep rep;
  const auto t_setup = Clock::now();
  auto sw = std::make_unique<Swarm>();
  sw->spec = spec;
  sw->build(seed);
  // Set-up ends when every member is registered and has its file open.
  constexpr double kSetupStepS = 0.1;
  constexpr double kSetupLimitS = 10.0;
  while (!sw->all_ready()) {
    if (sw->now().seconds() >= kSetupLimitS) {
      rep.fail("swarm set-up did not finish within the simulated limit");
      return rep;
    }
    sw->run_until(sw->now() + sim::seconds_d(kSetupStepS));
  }
  rep.setup_s = seconds_since(t_setup);
  rep.sharded = spec.shards != 0;

  // Measured phase.
  const sim::SimTime t0 = sw->now();
  sw->loop.phase_start = t0;
  const std::uint64_t ev0 = sw->events();
  const net::NetStats net0 = sw->net_stats();
  const storage::SanStats san0 = sw->san_stats();
  const metrics::Counters srv0 = sw->server_counters();
  const metrics::Counters cli0 = sw->client_counters();
  const std::uint64_t exp0 = sw->lease_expiries();
  for (const Member& m : sw->members) {
    rep.c.cache_hits -= m.cl->cache().hits();
    rep.c.cache_misses -= m.cl->cache().misses();
  }
  std::vector<std::uint64_t> shard_ev0;
  for (unsigned s = 0; s < sw->shard_count(); ++s) {
    shard_ev0.push_back(sw->engine(s).events_executed());
  }
  const bool tel = sw->telemetry;
  const std::uint64_t wait0 = tel ? rt_counter(sw->ctr, "barrier.wait_ns_total") : 0;
  const std::uint64_t xin0 = tel ? rt_counter(sw->ctr, "net.xshard_in") : 0;
  const std::uint64_t win0 = tel ? rt_counter(sw->ctr, "engine.windows") : 0;
  const std::uint64_t idle0 = tel ? rt_counter(sw->ctr, "engine.idle_windows") : 0;

  const std::int64_t phase_ns = sim::seconds_d(spec.phase_s).ns;
  rep.slice_ms.reserve(spec.slices);
  trace::begin_phase();
  const auto t_phase = Clock::now();
  for (std::uint32_t i = 1; i <= spec.slices; ++i) {
    const sim::SimTime target{t0.ns + phase_ns * static_cast<std::int64_t>(i) / spec.slices};
    rep.slice_ms.push_back(1e3 * timed(rep, [&]() { sw->run_until(target); }));
    rep.c.queue_depth_max = std::max(rep.c.queue_depth_max, sw->queue_depth());
    rep.c.lease_state_bytes_max = std::max(rep.c.lease_state_bytes_max, sw->lease_state_bytes());
  }
  rep.phase_wall_s = seconds_since(t_phase);
  rep.ledger = trace::end_phase();

  PhaseCounts& c = rep.c;
  for (const ShardTally& t : sw->tally) {
    c.ops_ok += t.ops_ok;
    c.ops_failed += t.ops_failed;
    rep.latency_ms.insert(rep.latency_ms.end(), t.latency_ms.begin(), t.latency_ms.end());
  }
  c.events = sw->events() - ev0;
  const net::NetStats net1 = sw->net_stats();
  c.datagrams = net1.sent - net0.sent;
  c.ctrl_bytes = net1.bytes - net0.bytes;
  c.drops = net_drops(net1) - net_drops(net0);
  const storage::SanStats san1 = sw->san_stats();
  c.san_ios = san1.ios_submitted - san0.ios_submitted;
  c.san_bytes = san1.bytes_transferred - san0.bytes_transferred;
  c.fenced_rejects = san1.ios_failed_fenced - san0.ios_failed_fenced;
  c.server = counters_delta(sw->server_counters(), srv0);
  c.clients = counters_delta(sw->client_counters(), cli0);
  c.lease_expiries = sw->lease_expiries() - exp0;
  for (const Member& m : sw->members) {
    c.cache_hits += m.cl->cache().hits();
    c.cache_misses += m.cl->cache().misses();
  }
  std::vector<double> shard_ev;
  for (unsigned s = 0; s < sw->shard_count(); ++s) {
    shard_ev.push_back(static_cast<double>(sw->engine(s).events_executed() - shard_ev0[s]));
  }
  const double mean_ev =
      std::accumulate(shard_ev.begin(), shard_ev.end(), 0.0) / static_cast<double>(shard_ev.size());
  c.imbalance = ratio(*std::max_element(shard_ev.begin(), shard_ev.end()), mean_ev);
  if (tel) {
    rep.rt.barrier_wait_ns =
        static_cast<double>(rt_counter(sw->ctr, "barrier.wait_ns_total") - wait0);
    rep.rt.cross_shard_frac =
        ratio(static_cast<double>(rt_counter(sw->ctr, "net.xshard_in") - xin0),
              static_cast<double>(c.datagrams));
    const double windows = static_cast<double>(rt_counter(sw->ctr, "engine.windows") - win0);
    const double idle = static_cast<double>(rt_counter(sw->ctr, "engine.idle_windows") - idle0);
    rep.rt.idle_window_frac = ratio(idle, windows + idle);
  }

  // Verdict: the passive-server claim. No op failed anywhere in the run, the
  // lock tables are consistent, and the lease authority did no work and
  // holds no state.
  std::uint64_t failed_total = 0;
  for (const Member& m : sw->members) failed_total += m.ops_failed;
  if (failed_total != 0) rep.fail(std::to_string(failed_total) + " client ops failed");
  for (const auto& s : sw->servers) {
    if (!s->locks().invariants_hold()) rep.fail("lock manager invariants broken");
    if (s->counters().lease_ops != 0) rep.fail("lease authority did work while clients were active");
    if (s->lease_state_bytes() != 0) rep.fail("server holds lease state at the end");
  }

  Digest d;
  for (const Member& m : sw->members) {
    d.add(m.ops_ok);
    d.add(m.ops_failed);
  }
  digest_net(d, net1);
  digest_san(d, san1);
  digest_counters(d, sw->server_counters());
  d.add(sw->events());
  std::sort(rep.latency_ms.begin(), rep.latency_ms.end());
  for (double v : rep.latency_ms) d.add_double(v);
  rep.digest = d.h;

  // Tear down before the next rep; the clock does not include it.
  sw.reset();
  return rep;
}

// ---------------------------------------------------------------------------
// io-shared-faults.

constexpr double kIoStartS = 2.0;    // generators start; set-up must be done by then
constexpr double kIoRunS = 30.0;     // seconds of client traffic
constexpr std::uint32_t kIoClients = 128;
constexpr std::uint32_t kIoSlices = 3000;

workload::ScenarioConfig io_config(std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  workload::WorkloadSpec& w = cfg.workload;
  w.pattern = workload::Pattern::kRandomZipf;
  w.num_clients = kIoClients;
  w.num_files = 4 * kIoClients;
  w.file_blocks = 16;
  w.read_fraction = 0.7;
  w.zipf_s = 0.8;
  w.mean_interarrival_s = 0.030;
  w.run_seconds = kIoStartS + kIoRunS;
  w.seed = seed;
  cfg.lease.tau = sim::local_seconds(10);
  // The failure plan, in seconds after the generators start. Every failure
  // heals before the traffic ends, and none makes a client op fail: a
  // crashed client issues no ops, and the partitions are shorter than the
  // transport's retry budget, so the plan exercises recovery without
  // refusing work.
  //  * A rack of 16 clients crashes at once for 1.5 tau: the server waits
  //    out tau(1+eps), fences each client at the disks and steals its locks,
  //    and ops on those files stall until then — the latency tail, bounded
  //    by the lease. With one crashed client the tail would depend on which
  //    hot files it happened to hold; with 16 it is the lease bound.
  //  * One client crashes for less than tau and restarts inside its lease.
  //  * A 1 s symmetric partition and a 1 s asymmetric sever: retransmits,
  //    undeliverable server messages and the NACK path.
  using K = workload::FailureKind;
  const double t = kIoStartS;
  const double tau = 10.0;
  for (std::uint32_t c = 0; c < 16; ++c) {
    cfg.failures.add(t + 5.0, K::kCrash, c).add(t + 5.0 + 1.5 * tau, K::kRestart, c);
  }
  cfg.failures.add(t + 10.0, K::kCrash, 16)
      .add(t + 10.0 + 0.3 * tau, K::kRestart, 16)
      .add(t + 4.0, K::kCtrlIsolate, 17)
      .add(t + 5.0, K::kCtrlHeal, 17)
      .add(t + 6.0, K::kCtrlSeverToServer, 18)
      .add(t + 7.0, K::kCtrlHeal, 18);
  return cfg;
}

bool io_files_open(workload::Scenario& sc) {
  const std::size_t last = sc.config().workload.num_files - 1;
  for (std::size_t c = 0; c < sc.num_clients(); ++c) {
    try {
      (void)sc.fd(c, last);
    } catch (const std::out_of_range&) {
      return false;
    }
  }
  return true;
}

Rep run_io(std::uint64_t seed) {
  Rep rep;
  const auto t_setup = Clock::now();
  auto sc = std::make_unique<workload::Scenario>(io_config(seed));
  sc->setup();
  constexpr double kStepS = 0.01;
  while (!io_files_open(*sc)) {
    if (sc->engine().now().seconds() >= kIoStartS) {
      rep.fail("io set-up did not finish before the generators start");
      return rep;
    }
    sc->run_until_s(sc->engine().now().seconds() + kStepS);
  }
  rep.setup_s = seconds_since(t_setup);
  sc->run_until_s(kIoStartS);

  auto client_sum = [&sc]() {
    metrics::Counters t;
    for (std::size_t c = 0; c < sc->num_clients(); ++c) t += sc->client(c).counters();
    return t;
  };
  auto expiries = [&sc]() {
    std::uint64_t t = 0;
    for (std::size_t c = 0; c < sc->num_clients(); ++c) {
      if (const auto* a = sc->client(c).lease_agent(); a != nullptr) t += a->expiries();
    }
    return t;
  };
  const std::uint64_t ev0 = sc->engine().events_executed();
  const net::NetStats net0 = sc->control_net().stats();
  const storage::SanStats san0 = sc->san().stats();
  const metrics::Counters srv0 = sc->server().counters();
  const metrics::Counters cli0 = client_sum();
  const std::uint64_t exp0 = expiries();
  for (std::size_t c = 0; c < sc->num_clients(); ++c) {
    rep.c.cache_hits -= sc->client(c).cache().hits();
    rep.c.cache_misses -= sc->client(c).cache().misses();
  }

  trace::begin_phase();
  const auto t_phase = Clock::now();
  timed(rep, [&]() { sc->run_generators(); });
  const double span_s = kIoRunS / kIoSlices;
  for (std::uint32_t i = 1; i <= kIoSlices; ++i) {
    const double target = kIoStartS + span_s * i;
    rep.slice_ms.push_back(1e3 * timed(rep, [&]() { sc->run_until_s(target); }));
    rep.c.queue_depth_max =
        std::max<std::uint64_t>(rep.c.queue_depth_max, sc->engine().queue_depth());
  }
  // Settle, final sync sweeps and the consistency check.
  workload::ScenarioResult res;
  timed(rep, [&]() { res = sc->finish(); });
  rep.phase_wall_s = seconds_since(t_phase);
  rep.ledger = trace::end_phase();

  PhaseCounts& c = rep.c;
  c.ops_ok = res.reads_ok + res.writes_ok;
  c.ops_failed = res.ops_failed;
  c.events = res.engine_events - ev0;
  c.datagrams = res.net.sent - net0.sent;
  c.ctrl_bytes = res.net.bytes - net0.bytes;
  c.drops = net_drops(res.net) - net_drops(net0);
  c.san_ios = res.san.ios_submitted - san0.ios_submitted;
  c.san_bytes = res.san.bytes_transferred - san0.bytes_transferred;
  c.fenced_rejects = res.san.ios_failed_fenced - san0.ios_failed_fenced;
  c.server = counters_delta(res.server, srv0);
  c.clients = counters_delta(res.clients, cli0);
  c.lease_expiries = expiries() - exp0;
  for (std::size_t i = 0; i < sc->num_clients(); ++i) {
    c.cache_hits += sc->client(i).cache().hits();
    c.cache_misses += sc->client(i).cache().misses();
  }
  c.lease_state_bytes_max = res.max_lease_state_bytes;
  const verify::HistoryRecorder& h = sc->history();
  c.history_records = h.disk_writes().size() + h.buffered_writes().size() + h.reads().size();
  rep.latency_ms = res.op_latency_ms.samples();
  std::sort(rep.latency_ms.begin(), rep.latency_ms.end());
  rep.check_s = rep.ledger.probe_ns[static_cast<std::size_t>(Probe::kCheck)] * 1e-9;

  if (res.ops_failed != 0) rep.fail(std::to_string(res.ops_failed) + " client ops failed");
  if (res.violations.total() != 0) {
    rep.fail("consistency checker: " + res.verdict_line());
  }
  if (!res.honest_violations.empty()) {
    rep.fail(std::to_string(res.honest_violations.size()) + " honest-client violations");
  }
  if (!sc->server().locks().invariants_hold()) rep.fail("lock manager invariants broken");

  Digest d;
  d.add(res.reads_ok);
  d.add(res.writes_ok);
  d.add(res.ops_failed);
  d.add(res.violations.total());
  digest_net(d, res.net);
  digest_san(d, res.san);
  digest_counters(d, res.server);
  digest_counters(d, res.clients);
  d.add(res.engine_events);
  d.add(c.history_records);
  for (double v : rep.latency_ms) d.add_double(v);
  rep.digest = d.h;

  sc.reset();
  return rep;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  int max_reps{50};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "stank_perf: %s\n"
               "usage: stank_perf --workload swarm-renewal|io-shared-faults|sharded-k4 "
               "--seed N --seconds S [--max-reps R]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--max-reps") {
        o.max_reps = std::stoi(v);
      } else {
        usage("unknown flag");
      }
    } catch (const std::logic_error&) {
      usage("malformed number");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.max_reps < 1) usage("--max-reps must be at least 1");
  return o;
}

Rep run_rep(const Options& o) {
  if (o.workload == "swarm-renewal") {
    return run_swarm(SwarmSpec{50'000, 0, 512, 6.0, 1200}, o.seed);
  }
  if (o.workload == "sharded-k4") {
    // The pool weak-scales with the swarm (N / 100 files) so per-file
    // contention matches swarm-renewal's.
    return run_swarm(SwarmSpec{100'000, 4, 1000, 3.0, 1000}, o.seed);
  }
  if (o.workload == "io-shared-faults") return run_io(o.seed);
  usage("unknown workload");
}

struct Json {
  std::string s{"{"};
  void key(const char* k) {
    if (s.size() > 1) s += ",";
    s += "\"";
    s += k;
    s += "\":";
  }
  void num(const char* k, double v) {
    key(k);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    s += buf;
  }
  void str(const char* k, const std::string& v) {
    key(k);
    s += "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') s += '\\';
      s += (ch == '\n' ? ' ' : ch);
    }
    s += "\"";
  }
  void raw(const char* k, const std::string& v) {
    key(k);
    s += v;
  }
  std::string done() { return s + "}"; }
};

// Per-layer metrics of one traced rep.
std::string layer_json(const Rep& r) {
  const PhaseCounts& c = r.c;
  const trace::PhaseLedger& L = r.ledger;
  const double ops = static_cast<double>(c.ops_ok);
  const double per_op = ops > 0 ? 1.0 / ops : 0.0;
  // Ledger total: the phase's wall time. On the sharded engine, time inside
  // run_until that no span covers is the runtime's own: window loop,
  // barriers, mailbox exchange.
  const double total_ns = r.phase_wall_s * 1e9;
  const double inside_ns = r.inside_s * 1e9;
  const double unattributed_ns = total_ns - inside_ns;
  std::array<double, kLayers> self = L.self_ns;
  if (r.sharded) {
    self[static_cast<std::size_t>(Layer::kRt)] = std::max(0.0, inside_ns - L.root_ns);
  }
  double self_sum = 0.0;
  for (double v : self) self_sum += v;
  auto share = [&](Layer l) { return ratio(self[static_cast<std::size_t>(l)], total_ns); };
  auto probe_ns = [&](Probe p) {
    const auto i = static_cast<std::size_t>(p);
    return ratio(L.probe_ns[i], static_cast<double>(L.probe_calls[i]));
  };

  Json j;
  j.num("sim.events_per_op", static_cast<double>(c.events) * per_op);
  j.num("sim.self_ns_per_event", ratio(self[static_cast<std::size_t>(Layer::kSim)], static_cast<double>(c.events)));
  j.num("sim.self_share", share(Layer::kSim));
  j.num("sim.queue_depth_max", static_cast<double>(c.queue_depth_max));
  j.num("net.datagrams_per_op", static_cast<double>(c.datagrams) * per_op);
  j.num("net.self_share", share(Layer::kNet));
  j.num("net.drops_per_op", static_cast<double>(c.drops) * per_op);
  j.num("protocol.self_share", share(Layer::kProtocol));
  j.num("protocol.encode_ns", probe_ns(Probe::kEncode));
  j.num("protocol.decode_ns", probe_ns(Probe::kDecode));
  j.num("protocol.retransmits_per_op",
        static_cast<double>(c.server.retransmissions + c.clients.retransmissions) * per_op);
  j.num("protocol.nacks_per_op", static_cast<double>(c.server.nacks_sent) * per_op);
  j.num("protocol.reply_cache_hits_per_op", static_cast<double>(c.server.reply_cache_hits) * per_op);
  j.num("core.self_share", share(Layer::kCore));
  j.num("core.lease_only_msgs_per_op", static_cast<double>(c.clients.lease_only_msgs) * per_op);
  j.num("core.authority_lease_ops", static_cast<double>(c.server.lease_ops));
  j.num("core.lease_expiries", static_cast<double>(c.lease_expiries));
  j.num("server.self_share", share(Layer::kServer));
  j.num("server.lock_ns", probe_ns(Probe::kLock));
  j.num("server.grants_per_op", static_cast<double>(c.server.lock_grants) * per_op);
  j.num("server.demands_per_op", static_cast<double>(c.server.lock_demands) * per_op);
  j.num("server.steals", static_cast<double>(c.server.lock_steals));
  j.num("server.fences", static_cast<double>(c.server.fences_issued));
  j.num("server.lease_state_bytes_max", static_cast<double>(c.lease_state_bytes_max));
  j.num("client.self_share", share(Layer::kClient));
  j.num("client.cache_hit_rate", ratio(static_cast<double>(c.cache_hits),
                                       static_cast<double>(c.cache_hits + c.cache_misses)));
  j.num("storage.self_share", share(Layer::kStorage));
  j.num("storage.ios_per_op", static_cast<double>(c.san_ios) * per_op);
  j.num("storage.bytes_per_op", static_cast<double>(c.san_bytes) * per_op);
  j.num("storage.fenced_rejects", static_cast<double>(c.fenced_rejects));
  j.num("verify.self_share", share(Layer::kVerify));
  j.num("verify.check_s", r.check_s);
  j.num("verify.history_records_per_op", static_cast<double>(c.history_records) * per_op);
  j.num("workload.self_share", share(Layer::kWorkload));
  j.num("rt.self_share", share(Layer::kRt));
  j.num("rt.barrier_wait_share", ratio(r.rt.barrier_wait_ns, total_ns));
  j.num("rt.imbalance", c.imbalance);
  j.num("rt.cross_shard_frac", r.rt.cross_shard_frac);
  j.num("rt.idle_window_frac", r.rt.idle_window_frac);
  j.num("unattributed_share", ratio(unattributed_ns, total_ns));
  // Closure: self times plus unattributed time against the ledger total.
  j.num("closure_error", ratio(self_sum + unattributed_ns - total_ns, total_ns));
  return j.done();
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  std::vector<Rep> reps;
  const auto t_start = Clock::now();
  do {
    reps.push_back(run_rep(o));
    if (!reps.back().correct) break;
  } while (static_cast<int>(reps.size()) < o.max_reps && seconds_since(t_start) < o.seconds);

  const Rep& first = reps.front();
  bool correct = first.correct;
  std::string why = first.why;
  for (const Rep& r : reps) {
    if (!r.correct && correct) {
      correct = false;
      why = r.why;
    }
    if (r.digest != first.digest && correct) {
      correct = false;
      why = "reps of one seed produced different digests";
    }
  }

  std::vector<double> setup;
  std::vector<double> wall_per_op;
  std::vector<double> slice_p50;
  std::vector<double> slice_p99;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    wall_per_op.push_back(ratio(r.phase_wall_s * 1e9, static_cast<double>(r.c.ops_ok)));
    slice_p50.push_back(quantile(r.slice_ms, 0.50));
    slice_p99.push_back(quantile(r.slice_ms, 0.99));
  }
  const double ops = static_cast<double>(first.c.ops_ok);
  const double attempted = static_cast<double>(first.c.ops_ok + first.c.ops_failed);
  if (correct && first.c.ops_ok <= 100'000) {
    correct = false;
    why = "measured phase completed too few ops for the latency tail";
  }

  Json e2e;
  e2e.num("setup_s", median(setup));
  e2e.num("wall_ns_per_op", median(wall_per_op));
  e2e.num("slice_ms_p50", median(slice_p50));
  e2e.num("slice_ms_p99", median(slice_p99));
  e2e.num("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0);
  e2e.num("op_latency_p50_ms", quantile(first.latency_ms, 0.50));
  e2e.num("op_latency_p999_ms", quantile(first.latency_ms, 0.999));
  e2e.num("ctrl_bytes_per_op", ratio(static_cast<double>(first.c.ctrl_bytes), ops));
  e2e.num("op_ok_frac", ratio(ops, attempted));

  Json out;
  out.str("workload", o.workload);
  out.num("seed", static_cast<double>(o.seed));
  out.num("reps", static_cast<double>(reps.size()));
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(first.digest));
  out.str("digest", hex);
  out.raw("correct", correct ? "true" : "false");
  out.str("why", why);
  out.num("attempted", attempted);
  out.num("failed", static_cast<double>(first.c.ops_failed));
  out.num("slices", static_cast<double>(first.slice_ms.size()));
  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ",", v[i]);
      s += buf;
    }
    return s + "]";
  };
  out.raw("rep_setup_s", list(setup));
  out.raw("rep_wall_ns_per_op", list(wall_per_op));
  out.num("latency_samples", static_cast<double>(first.latency_ms.size()));
  out.raw("end_to_end", e2e.done());
  if (trace::enabled()) {
    // The median rep by wall time per op carries the ledger.
    std::vector<std::size_t> order(reps.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return wall_per_op[a] < wall_per_op[b]; });
    out.raw("per_layer", layer_json(reps[order[order.size() / 2]]));
  }
  std::printf("%s\n", out.done().c_str());
  return correct ? 0 : 1;
}
