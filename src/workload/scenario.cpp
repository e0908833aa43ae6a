#include "workload/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"
#include "common/log.hpp"

namespace stank::workload {

namespace {

constexpr std::uint32_t kServerNode = 1;
constexpr std::uint32_t kClientBase = 100;

std::string file_path(std::size_t i) { return "/data/f" + std::to_string(i); }

}  // namespace

Scenario::Scenario(ScenarioConfig cfg)
    : cfg_(std::move(cfg)), engine_(cfg_.engine), rng_(cfg_.workload.seed) {
  cfg_.lease.validate();
  // K > 1 shards the control path only. Each shard has its own SAN fabric
  // and a client submits to the one on its shard, so data I/O from a client
  // whose server lives on another shard would reach a disk the server never
  // allocated on; and failure events edit one shard's reachability. A
  // sharded SAN is future work, so K > 1 runs the lock-cycle mix, which
  // does no data I/O, with no failure plan and no byzantine clients.
  STANK_ASSERT_MSG(shards() == 1 || (cfg_.workload.pattern == Pattern::kLockCycle &&
                                     cfg_.failures.events.empty() && cfg_.byzantine.empty()),
                   "K > 1 scenarios run kLockCycle with no failure plan");
  STANK_ASSERT_MSG(kServerNode + shards() <= kClientBase, "server ids would reach client ids");
  settle_seconds_ = cfg_.workload.settle_seconds > 0.0
                        ? cfg_.workload.settle_seconds
                        : std::max(5.0, 3.0 * cfg_.lease.tau.seconds());
  for (unsigned sh = 0; sh < shards(); ++sh) {
    recorders_.push_back(std::make_unique<obs::Recorder>());
  }
}

Scenario::~Scenario() = default;

NodeId Scenario::server_node(std::size_t j) const {
  return NodeId{static_cast<std::uint32_t>(kServerNode + j)};
}

NodeId Scenario::client_node(std::size_t i) const {
  return NodeId{static_cast<std::uint32_t>(kClientBase + i)};
}

unsigned Scenario::client_shard(std::size_t i) const {
  // Each run of K consecutive clients covers every shard once, so every
  // shard hosts N/K clients beside its server; client i shares a shard with
  // its server i mod K only when (i / K) mod K == 0, so ~1/K of the traffic
  // stays shard-local and the rest crosses the mailbox exchange.
  const std::size_t k = shards();
  return static_cast<unsigned>((i + i / k) % k);
}

client::Fd Scenario::fd(std::size_t client_idx, std::size_t file_idx) const {
  return drivers_.at(client_idx).fds.at(file_idx);
}

std::uint64_t Scenario::next_version(FileId file, std::uint64_t block) {
  return ++versions_[{file, block}];
}

std::string ScenarioResult::verdict_line() const {
  char head[128];
  if (violations.total() == 0) {
    std::snprintf(head, sizeof(head), "verdict: CONSISTENT");
  } else {
    std::snprintf(head, sizeof(head),
                  "verdict: %zu VIOLATION(S) [stale=%zu lost=%zu order=%zu]",
                  violations.total(), violations.stale_reads, violations.lost_updates,
                  violations.write_order);
  }
  char ops[96];
  std::snprintf(ops, sizeof(ops), " | ops %llur/%lluw ok, %llu failed | net ",
                static_cast<unsigned long long>(reads_ok),
                static_cast<unsigned long long>(writes_ok),
                static_cast<unsigned long long>(ops_failed));
  std::string line = std::string(head) + ops + net.summary();
  // Telemetry caveats: a trace that overwrote events cannot prove where a
  // bad run started, and watchdog trips mean an invariant probe left its
  // band mid-run — both belong on the one line people actually read.
  if (trace_dropped > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " | trace dropped=%llu",
                  static_cast<unsigned long long>(trace_dropped));
    line += buf;
  }
  if (watchdog_trips > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " | watchdog trips=%llu",
                  static_cast<unsigned long long>(watchdog_trips));
    line += buf;
  }
  return line;
}

void Scenario::build() {
  const unsigned k = shards();
  op_latency_ms_.resize(k);
  max_lease_bytes_.assign(k, 0);

  // RNG stream layout: net fork(1), SAN j fork(2 + j), driver c
  // fork(1000 + c). The fabric forks shard s's stream from its own copy of
  // rng_, so burn fork(1) here to keep the later forks in place.
  net_ = std::make_unique<net::ShardedNet>(engine_, rng_, cfg_.control_net);
  (void)rng_.fork(1);
  if (k > 1) {
    for (unsigned j = 0; j < k; ++j) net_->place(server_node(j), j);
    for (std::uint32_t c = 0; c < cfg_.workload.num_clients; ++c) {
      net_->place(client_node(c), client_shard(c));
    }
  }

  std::vector<DiskId> disks;
  for (std::uint32_t d = 0; d < cfg_.num_disks; ++d) disks.push_back(DiskId{d + 1});
  for (unsigned j = 0; j < k; ++j) {
    auto san = std::make_unique<storage::SanFabric>(engine_.shard(j), rng_.fork(2 + j), cfg_.san);
    san->on_io = [this](const storage::IoRequest& rq, const storage::IoResult& rs,
                        sim::SimTime t) { history_.on_disk_io(rq, rs, t, cfg_.block_size); };
    for (DiskId id : disks) san->add_disk(id, cfg_.disk_blocks, cfg_.block_size);
    sans_.push_back(std::move(san));
  }

  // Clock rates: any two nodes must be mutually rate-synchronized within
  // epsilon, so individual rates live in [1/sqrt(1+eps), sqrt(1+eps)].
  const double eps = cfg_.lease.epsilon;
  const double hi = std::sqrt(1.0 + eps);
  const double lo = 1.0 / hi;
  auto draw_rate = [&](bool is_server) {
    switch (cfg_.clock_skew_mode) {
      case -1: return is_server ? hi : lo;  // safety-boundary: server fast, clients slow
      case +1: return is_server ? lo : hi;  // availability-worst: server slow, clients fast
      case +2: return 1.0;                  // ideal clocks
      default: return lo + (hi - lo) * rng_.uniform();
    }
  };

  for (unsigned j = 0; j < k; ++j) {
    server::ServerConfig scfg;
    scfg.id = server_node(j);
    scfg.lease = cfg_.lease;
    scfg.recovery = cfg_.recovery;
    scfg.strategy = cfg_.strategy;
    scfg.transport = cfg_.transport;
    scfg.block_size = cfg_.block_size;
    scfg.data_disks = disks;
    scfg.recovery_grace = cfg_.recovery_grace;
    if (cfg_.demand_timeout.ns > 0) {
      scfg.demand_timeout = cfg_.demand_timeout;
    }
    servers_.push_back(std::make_unique<server::Server>(engine_.shard(j), net_->shard(j),
                                                        *sans_[j],
                                                        sim::LocalClock(draw_rate(true)), scfg,
                                                        trace_rec(j)));
  }

  for (std::uint32_t c = 0; c < cfg_.workload.num_clients; ++c) {
    const unsigned sh = client_shard(c);
    client::ClientConfig ccfg;
    ccfg.id = client_node(c);
    ccfg.server = server_node(c % k);
    ccfg.lease = cfg_.lease;
    if (cfg_.client_tau.ns > 0) {
      // Assumption-violation knob: the client's contract disagrees with the
      // server's (see ScenarioConfig::client_tau).
      ccfg.lease.tau = cfg_.client_tau;
    }
    ccfg.strategy = cfg_.strategy;
    ccfg.coherence = cfg_.coherence;
    ccfg.data_path = cfg_.data_path;
    ccfg.transport = cfg_.transport;
    ccfg.block_size = cfg_.block_size;
    if (auto bit = cfg_.byzantine.find(c); bit != cfg_.byzantine.end() && bit->second.any()) {
      ccfg.byzantine = bit->second;
      history_.mark_byzantine(client_node(c));
    }
    clients_.push_back(std::make_unique<client::Client>(
        engine_.shard(sh), net_->shard(sh), *sans_[sh],
        sim::LocalClock(draw_rate(false) * cfg_.client_rate_scale), ccfg, trace_rec(sh)));
  }

  drivers_.resize(clients_.size());
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    drivers_[c].index = c;
    drivers_[c].shard = client_shard(c);
    drivers_[c].rng = rng_.fork(1000 + c);
  }
  if (cfg_.workload.pattern == Pattern::kLockCycle) {
    cycle_zipf_ = std::make_unique<sim::ZipfTable>(cfg_.workload.num_files, cfg_.workload.zipf_s);
  }

  if (cfg_.enable_trace) {
    for (unsigned sh = 0; sh < k; ++sh) {
      recorders_[sh]->bind_engine(engine_.shard(sh));
      net_->shard(sh).set_recorder(recorders_[sh].get());
    }
  }
  if (cfg_.enable_trace && k == 1) {
    // The sampler and the lease-timer watchdog read the whole installation
    // (every client's phase), which only one shard may do.
    obs::Recorder* rec = recorders_[0].get();
    server::Server* srv = servers_[0].get();
    net::ControlNet* ctrl = &net_->shard(0);
    // Time-series probes, snapshotted on the lease-state sampling timer.
    sampler_ = std::make_unique<obs::Sampler>(*rec);
    sampler_->add_probe("lease_state_bytes",
                        [srv]() { return static_cast<double>(srv->lease_state_bytes()); });
    sampler_->add_probe("held_files",
                        [srv]() { return static_cast<double>(srv->locks().held_files()); });
    if (cfg_.strategy == core::LeaseStrategy::kStorageTank) {
      sampler_->add_probe("suspect_clients", [srv]() {
        return static_cast<double>(srv->authority().suspect_count());
      });
    }
    sampler_->add_delta_probe(
        "net_sent", [ctrl]() { return static_cast<double>(ctrl->stats().sent); });
    sampler_->add_delta_probe(
        "net_delivered", [ctrl]() { return static_cast<double>(ctrl->stats().delivered); });
    sampler_->add_delta_probe("net_dropped", [ctrl]() {
      const net::NetStats& s = ctrl->stats();
      return static_cast<double>(s.dropped_partition + s.dropped_random + s.dropped_burst +
                                 s.dropped_detached);
    });

    // Invariant watchdog, evaluated on the same lease-timer cadence as the
    // sampler (sample_lease_state). It never schedules engine events of its
    // own, so arming it cannot perturb the event sequence.
    watchdog_ = std::make_unique<obs::Watchdog>(*rec);
    const auto n = static_cast<double>(cfg_.workload.num_clients);
    if (cfg_.strategy == core::LeaseStrategy::kStorageTank) {
      // More than half the population simultaneously suspect means the
      // failure detector is melting down, not detecting failures.
      watchdog_->add_probe(
          "suspect_clients",
          [srv]() { return static_cast<double>(srv->authority().suspect_count()); }, 0.0,
          std::max(1.0, n / 2.0));
      // Lease-phase residency drift: clients stuck in the disruption phases
      // (suspect/flush/expired) outside an injected failure episode.
      watchdog_->add_probe(
          "clients_disrupted",
          [this]() {
            std::size_t disrupted = 0;
            for (const auto& cl : clients_) {
              if (static_cast<std::uint64_t>(cl->lease_phase()) >= 3) ++disrupted;
            }
            return static_cast<double>(disrupted);
          },
          0.0, std::max(1.0, n / 2.0));
    }
    // Any ring overwrite between two evaluations is an anomaly worth a
    // typed event: a violating run's trace may have lost its root cause.
    watchdog_->add_rate_probe(
        "trace_dropped", [rec]() { return static_cast<double>(rec->dropped_events()); }, 0.0);
    // Lock-convoy bound: the whole population queued four deep is a convoy,
    // not contention.
    watchdog_->add_probe(
        "lock_waiters",
        [srv]() { return static_cast<double>(srv->locks().queued_waiters()); }, 0.0,
        std::max(4.0, 4.0 * n));
  }
  if (cfg_.shard_telemetry) arm_shard_telemetry();
}

void Scenario::arm_shard_telemetry() {
  // The engine and fabric register per-shard counters. At K > 1 a watchdog
  // rides the engine's barrier snapshot hook (worker 0, everyone else
  // parked); the K = 1 fast path has no barriers, so it books counters only.
  // Arming adds zero engine events and draws no randomness.
  shard_counters_ = std::make_unique<obs::Counters>();
  obs::Counters& ctr = *shard_counters_;
  sim::ShardedEngine::Telemetry tel;
  tel.counters = &ctr;
  if (shards() > 1) {
    watchdog_rec_ = std::make_unique<obs::Recorder>();
    watchdog_ = std::make_unique<obs::Watchdog>(*watchdog_rec_);
    // ~20 ms of simulated time between snapshots at the 10 us window.
    tel.snapshot_every_windows = 2048;
    tel.on_snapshot = [wd = watchdog_.get()](sim::SimTime at) { wd->evaluate(at); };
  }
  engine_.set_telemetry(std::move(tel));
  net_->set_counters(&ctr);
  ctr.freeze(shards());
  if (shards() == 1) return;
  // Probes read merged counters: legal between the snapshot barriers
  // (every producer is parked) and after the run.
  const obs::Counters::Id id_hw = ctr.find("net.mailbox_hw");
  const obs::Counters::Id id_imb = ctr.find("engine.imbalance_permille");
  // A mailbox a million datagrams deep means a consumer shard stopped
  // draining: a hang signature, not load.
  watchdog_->add_probe(
      "mailbox_hw", [&ctr, id_hw]() { return static_cast<double>(ctr.merged(id_hw)); }, 0.0,
      1 << 20);
  // The placement gives every shard N/K clients and one server, so a shard
  // running 1.25x the mean load means the placement is skewed.
  watchdog_->add_probe(
      "imbalance_permille",
      [&ctr, id_imb]() { return static_cast<double>(ctr.merged(id_imb)); }, 0.0, 1250.0);
}

void Scenario::setup() {
  STANK_ASSERT(!setup_done_);
  setup_done_ = true;
  build();

  // Preallocate the file pool on every server so sizes and extents are
  // stable (each server allocates the same ids; file_id() names server 0's).
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    for (std::uint32_t f = 0; f < cfg_.workload.num_files; ++f) {
      auto res = servers_[j]->preallocate(
          file_path(f), static_cast<std::uint64_t>(cfg_.workload.file_blocks) * cfg_.block_size);
      STANK_ASSERT_MSG(res.ok(), "preallocation failed: disk too small for the file pool?");
      if (j == 0) file_ids_.push_back(res.value());
    }
    servers_[j]->start();
  }

  const bool cycle = cfg_.workload.pattern == Pattern::kLockCycle;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    client::Client& cl = *clients_[c];
    if (!cycle) {
      cl.on_registered = [this, c]() { open_all_files(c, []() {}); };
      cl.start();
      continue;
    }
    // Stagger registration across the first second so the servers see a
    // ramp, not one synchronized thundering herd.
    ClientDriver& d = drivers_[c];
    cl.on_registered = [this, c]() { open_cycle_file(c); };
    const double start_at = 0.001 + 0.999 * d.rng.uniform();
    engine_of(d).schedule_after(sim::seconds_d(start_at), [this, c]() { clients_[c]->start(); });
  }

  // Failure plan.
  for (const auto& ev : cfg_.failures.events) {
    engine().schedule_at(sim::SimTime{} + sim::seconds_d(ev.at_s),
                         [this, ev]() { apply_failure(ev); });
  }

  // Lease-state sampler.
  for (std::size_t j = 0; j < servers_.size(); ++j) sample_lease_state(j);
}

void Scenario::open_all_files(std::size_t ci, std::function<void()> done) {
  // Sequentially (re-)open every pool file; fds are replaced wholesale.
  auto fds = std::make_shared<std::map<std::size_t, client::Fd>>();
  auto step = std::make_shared<std::function<void(std::size_t)>>();
  auto done_shared = std::make_shared<std::function<void()>>(std::move(done));
  // The continuation callback holds the strong reference that keeps `step`
  // alive while an open is in flight; the closure itself only holds a weak
  // one, so the chain is freed when it ends instead of leaking as a cycle.
  *step = [this, ci, fds, wstep = std::weak_ptr(step), done_shared](std::size_t fi) {
    if (fi >= cfg_.workload.num_files) {
      drivers_[ci].fds = *fds;
      (*done_shared)();
      return;
    }
    clients_[ci]->open(file_path(fi), /*create=*/false,
                       [ci, fi, fds, step = wstep.lock()](Result<client::Fd> res) {
                         if (res.ok() && step) {
                           (*fds)[fi] = res.value();
                           (*step)(fi + 1);
                         }
                         // On failure (partition mid-open): leave fds partial;
                         // the next registration retriggers the sweep.
                       });
  };
  (*step)(0);
}

void Scenario::run_generators() {
  for (auto& d : drivers_) {
    d.running = true;
    if (cfg_.workload.pattern == Pattern::kLockCycle) {
      maybe_start_cycle(d.index);
    } else {
      schedule_next_op(d.index);
    }
  }
}

void Scenario::schedule_next_op(std::size_t ci) {
  ClientDriver& d = drivers_[ci];
  const double wait = d.rng.exponential(cfg_.workload.mean_interarrival_s);
  engine_of(d).schedule_after(sim::seconds_d(wait), [this, ci]() { issue_op(ci); });
}

void Scenario::issue_op(std::size_t ci) {
  ClientDriver& d = drivers_[ci];
  if (!d.running || workload_over(d)) {
    d.running = false;
    return;
  }
  schedule_next_op(ci);  // open-loop arrivals: survive dropped callbacks

  client::Client& cl = *clients_[ci];
  if (cl.crashed() || d.fds.size() < cfg_.workload.num_files) {
    return;  // machine down or files not (re-)opened yet; skip this arrival
  }

  const OpChoice op = choose_op(d);
  if (op.is_read) {
    do_read(ci, op.file_idx, op.block);
  } else {
    do_write(ci, op.file_idx, op.block);
  }
}

void Scenario::open_cycle_file(std::size_t ci) {
  // Reached from on_registered, which re-fires after every re-registration:
  // re-open (a fresh Zipf draw) and refresh the fd, but never spawn a
  // second loop.
  ClientDriver& d = drivers_[ci];
  const std::size_t fi = cycle_zipf_->pick(d.rng.uniform());
  clients_[ci]->open(file_path(fi), /*create=*/false, [this, ci, fi](Result<client::Fd> res) {
    ClientDriver& d2 = drivers_[ci];
    if (!res.ok()) {
      ++d2.ops.failed;
      // A transient NACK or timeout: retry shortly.
      engine_of(d2).schedule_after(sim::millis(200), [this, ci]() { open_cycle_file(ci); });
      return;
    }
    d2.fds.clear();
    d2.fds[fi] = res.value();
    maybe_start_cycle(ci);
  });
}

void Scenario::maybe_start_cycle(std::size_t ci) {
  ClientDriver& d = drivers_[ci];
  if (!d.running || d.fds.empty() || d.cycling) return;
  d.cycling = true;
  schedule_next_cycle(ci, d.cycle_gen);
}

void Scenario::schedule_next_cycle(std::size_t ci, std::uint32_t gen) {
  ClientDriver& d = drivers_[ci];
  const double think = d.rng.exponential(cfg_.workload.mean_interarrival_s);
  engine_of(d).schedule_after(sim::seconds_d(think),
                              [this, ci, gen]() { lock_cycle(ci, gen); });
}

void Scenario::lock_cycle(std::size_t ci, std::uint32_t gen) {
  ClientDriver& d = drivers_[ci];
  if (gen != d.cycle_gen) return;  // retired by a crash
  if (!d.running || workload_over(d)) {
    d.running = false;
    d.cycling = false;
    return;
  }
  d.cycle_t0 = engine_of(d).now();
  d.cycle_mode = d.rng.uniform() < 1.0 - cfg_.workload.read_fraction
                     ? protocol::LockMode::kExclusive
                     : protocol::LockMode::kShared;
  // Closed loop: the next think time starts when this cycle ends. A crash
  // drops these callbacks, so when one runs its loop is still cycle_gen.
  clients_[ci]->lock(d.fds.begin()->second, d.cycle_mode, [this, ci](Status st) {
    ClientDriver& d2 = drivers_[ci];
    if (!st.is_ok()) {
      ++d2.ops.failed;
      schedule_next_cycle(ci, d2.cycle_gen);
      return;
    }
    const client::Fd fd = d2.fds.begin()->second;
    clients_[ci]->release(fd, protocol::LockMode::kNone, [this, ci](Status st2) {
      ClientDriver& d3 = drivers_[ci];
      if (st2.is_ok()) {
        ++(d3.cycle_mode == protocol::LockMode::kExclusive ? d3.ops.writes_ok : d3.ops.reads_ok);
        note_op_latency(d3, d3.cycle_t0);
      } else {
        ++d3.ops.failed;
      }
      schedule_next_cycle(ci, d3.cycle_gen);
    });
  });
}

Scenario::OpChoice Scenario::choose_op(ClientDriver& d) {
  const WorkloadSpec& w = cfg_.workload;
  OpChoice op;
  switch (w.pattern) {
    case Pattern::kRandomZipf:
      op.file_idx = d.rng.zipf(w.num_files, w.zipf_s);
      op.block = static_cast<std::uint64_t>(d.rng.uniform_int(0, w.file_blocks - 1));
      op.is_read = d.rng.uniform() < w.read_fraction;
      break;
    case Pattern::kSequential: {
      // Walk the whole pool block by block, wrapping around.
      const std::uint64_t total =
          static_cast<std::uint64_t>(w.num_files) * w.file_blocks;
      const std::uint64_t pos = d.cursor++ % total;
      op.file_idx = static_cast<std::size_t>(pos / w.file_blocks);
      op.block = pos % w.file_blocks;
      op.is_read = d.rng.uniform() < w.read_fraction;
      break;
    }
    case Pattern::kProducerConsumer:
      op.file_idx = d.rng.zipf(w.num_files, w.zipf_s);
      op.block = static_cast<std::uint64_t>(d.rng.uniform_int(0, w.file_blocks - 1));
      // Client 0 produces; everyone else consumes.
      op.is_read = d.index != 0;
      break;
    case Pattern::kPrivate: {
      // Client i owns the files congruent to i; nobody else touches them.
      const std::uint32_t owned =
          (w.num_files + w.num_clients - 1) / w.num_clients;
      const auto nth = static_cast<std::uint32_t>(
          d.rng.uniform_int(0, std::max<std::int64_t>(0, owned - 1)));
      std::size_t fi = d.index + static_cast<std::size_t>(nth) * w.num_clients;
      if (fi >= w.num_files) fi = d.index % w.num_files;
      op.file_idx = fi;
      op.block = static_cast<std::uint64_t>(d.rng.uniform_int(0, w.file_blocks - 1));
      op.is_read = d.rng.uniform() < w.read_fraction;
      break;
    }
    case Pattern::kLockCycle:
      STANK_UNREACHABLE("kLockCycle issues no block ops");
  }
  return op;
}

void Scenario::note_op_latency(const ClientDriver& d, sim::SimTime t0) {
  const double ms = (engine_.shard(d.shard).now() - t0).millis();
  op_latency_ms_[d.shard].add(ms);
  if (obs::Recorder* rec = trace_rec(d.shard)) rec->span(obs::SpanKind::kOpLatency, ms);
}

void Scenario::do_write(std::size_t ci, std::size_t fi, std::uint64_t block) {
  ClientDriver& d = drivers_[ci];
  client::Client& cl = *clients_[ci];
  const client::Fd fd = d.fds.at(fi);
  const FileId file = file_ids_.at(fi);
  const NodeId node = client_node(ci);
  const sim::SimTime t0 = engine_of(d).now();

  auto perform = [this, ci, fd, file, block, node, t0]() {
    client::Client& cl2 = *clients_[ci];
    const std::uint64_t version = next_version(file, block);
    verify::Stamp stamp{file, block, version, node};
    Bytes data = verify::make_stamped_block(cfg_.block_size, stamp);
    cl2.write(fd, block * cfg_.block_size, std::move(data),
              [this, ci, stamp, node, t0](Status st) {
                ClientDriver& d2 = drivers_[ci];
                if (st.is_ok()) {
                  ++d2.ops.writes_ok;
                  history_.on_buffered_write(engine_of(d2).now(), node, stamp);
                  note_op_latency(d2, t0);
                } else {
                  ++d2.ops.failed;
                }
              });
  };

  if (cfg_.coherence == client::CoherenceMode::kNfsPoll) {
    // No locks in NFS mode; versions are drawn at issue time, which is
    // exactly why unsynchronized writers can interleave badly.
    perform();
    return;
  }
  cl.lock(fd, protocol::LockMode::kExclusive, [this, ci, perform](Status st) {
    if (!st.is_ok()) {
      ++drivers_[ci].ops.failed;
      return;
    }
    perform();
  });
}

void Scenario::do_read(std::size_t ci, std::size_t fi, std::uint64_t block) {
  ClientDriver& d = drivers_[ci];
  client::Client& cl = *clients_[ci];
  const client::Fd fd = d.fds.at(fi);
  const FileId file = file_ids_.at(fi);
  const NodeId node = client_node(ci);
  const sim::SimTime t0 = engine_of(d).now();

  cl.read(fd, block * cfg_.block_size, cfg_.block_size,
          [this, ci, file, block, node, t0](Result<Bytes> res) {
            ClientDriver& d2 = drivers_[ci];
            if (!res.ok() || res.value().size() != cfg_.block_size) {
              ++d2.ops.failed;
              return;
            }
            ++d2.ops.reads_ok;
            note_op_latency(d2, t0);
            auto stamp = verify::decode_stamp(res.value());
            recycle_buf(std::move(res).value());  // stamp decoded, data done
            verify::ReadRec rec;
            rec.start = t0;
            rec.end = engine_of(d2).now();
            rec.client = node;
            rec.file = file;
            rec.block = block;
            rec.observed_version = stamp ? stamp->version : 0;
            history_.on_read(rec);
          });
}

void Scenario::apply_failure(const FailureEvent& ev) {
  STANK_ASSERT_MSG(shards() == 1, "failure injection is single-shard");
  const std::size_t ci = ev.client_idx;
  if (ci >= clients_.size()) return;
  const NodeId node = client_node(ci);
  net::ControlNet& ctrl = control_net();
  storage::SanFabric& san = *sans_[0];
  server::Server& srv = server();

  switch (ev.kind) {
    case FailureKind::kCtrlIsolate:
      ctrl.reachability().sever_pair(node, server_node());
      break;
    case FailureKind::kCtrlSeverToServer:
      ctrl.reachability().sever(node, server_node());
      break;
    case FailureKind::kCtrlHeal:
      ctrl.reachability().restore_pair(node, server_node());
      break;
    case FailureKind::kSanIsolate:
      for (std::uint32_t d = 0; d < cfg_.num_disks; ++d) {
        san.reachability().sever(node, DiskId{d + 1});
      }
      break;
    case FailureKind::kSanHeal:
      for (std::uint32_t d = 0; d < cfg_.num_disks; ++d) {
        san.reachability().restore(node, DiskId{d + 1});
      }
      break;
    case FailureKind::kCrash:
      clients_[ci]->crash();
      history_.on_crash(node);
      drivers_[ci].fds.clear();
      // The crash dropped any in-flight lock-cycle callbacks: retire that
      // loop; re-registration opens the file and starts a fresh one.
      drivers_[ci].cycling = false;
      ++drivers_[ci].cycle_gen;
      break;
    case FailureKind::kRestart:
      if (clients_[ci]->crashed()) {
        clients_[ci]->restart();  // on_registered re-opens the file pool
      }
      break;
    case FailureKind::kSlowSan:
      san.config().initiator_delay[node] = sim::seconds_d(ev.param_s);
      break;
    case FailureKind::kServerCrash:
      srv.crash();
      break;
    case FailureKind::kServerRestart:
      // Random plans can overlap crash/restart pairs; a restart that lands
      // while the server is already up is a no-op, not an error.
      if (!srv.started()) {
        srv.restart();
      }
      break;
    case FailureKind::kSanIsolateServer:
      // The server loses its SAN path: fence admin commands cannot reach the
      // disks and a fence->steal must hold until the path heals.
      for (std::uint32_t d = 0; d < cfg_.num_disks; ++d) {
        san.reachability().sever(server_node(), DiskId{d + 1});
      }
      break;
    case FailureKind::kSanHealServer:
      for (std::uint32_t d = 0; d < cfg_.num_disks; ++d) {
        san.reachability().restore(server_node(), DiskId{d + 1});
      }
      break;
  }
}

void Scenario::sample_lease_state(std::size_t j) {
  sim::Engine& eng = engine_.shard(static_cast<unsigned>(j));
  max_lease_bytes_[j] = std::max(max_lease_bytes_[j], servers_[j]->lease_state_bytes());
  if (sampler_) {
    sampler_->snapshot(now_s());
  }
  if (watchdog_ && shards() == 1) {
    watchdog_->evaluate(eng.now());
  }
  const double horizon = cfg_.workload.run_seconds + settle_seconds_;
  if (eng.now().seconds() < horizon) {
    eng.schedule_after(sim::millis(250), [this, j]() { sample_lease_state(j); });
  }
}

void Scenario::run_until_s(double t_s) {
  engine_.run_until(sim::SimTime{} + sim::seconds_d(t_s));
}

ScenarioResult Scenario::run() {
  setup();
  run_generators();
  run_until_s(cfg_.workload.run_seconds);
  return finish();
}

ScenarioResult Scenario::finish() {
  const double end_run = std::max(now_s(), cfg_.workload.run_seconds);

  if (cfg_.heal_at_settle) {
    for (unsigned sh = 0; sh < shards(); ++sh) {
      net_->shard(sh).reachability().heal();
      sans_[sh]->reachability().heal();
    }
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      if (clients_[c]->crashed()) {
        clients_[c]->restart();
        // A rebooted machine lost its volatile state; history already knows.
      }
    }
  }

  // Phase A: let recovery machinery (lease expiries, re-registrations,
  // phase-4 flushes, steals) run its course.
  run_until_s(end_run + 0.7 * settle_seconds_);

  // Phase B: sync sweeps until quiescent. A single final sync races with
  // long-queued ops — a lock grant delayed past the sync can still complete
  // a write and buffer dirty data with no flush opportunity left. Sweep
  // instead, and end the run on a CLEAN check: the engine stops at that
  // instant, so nothing can dirty a cache after the verdict. Ops still
  // queued at the stop never buffered anything and are invisible to the
  // checker. Grant up to one extra settle budget if dirt lingers.
  // Sweep bounds in INTEGER sim time. The double-domain form
  // (`now_s() < hard_end` with run_until targets converted through
  // seconds_d) span a truncation gap: run_until advances now_ to the
  // ns-truncated horizon, which sits just below the double it came from, so
  // the comparison stays true forever with zero progress. Harmless while
  // every client drained before the bound — a byzantine client whose stolen
  // lock strands its dirty pages rides the sweep all the way there and spun
  // here (found by fuzz_safety --byzantine, ack-without-release).
  const sim::SimTime hard_end_t = sim::SimTime{} + sim::seconds_d(end_run + 2.0 * settle_seconds_);
  const sim::Duration sweep_step = sim::seconds_d(0.1 * settle_seconds_);
  bool clean = false;
  while (!clean && engine().now() < hard_end_t) {
    for (auto& cl : clients_) {
      if (!cl->crashed() && cl->registered() && cl->accepting() &&
          cl->dirty_pages() > 0) {
        cl->sync_all([](Status) {});
      }
    }
    engine_.run_until(std::min(engine().now() + sweep_step, hard_end_t));
    clean = true;
    for (auto& cl : clients_) {
      if (!cl->crashed() && cl->dirty_pages() > 0) clean = false;
    }
  }

  ScenarioResult r;
  r.violation_list = verify::ConsistencyChecker(history_).check_all();
  r.violations = verify::ConsistencyChecker::summarize(r.violation_list);
  auto split = verify::ConsistencyChecker(history_).check_all_split();
  r.honest_violations = std::move(split.honest);
  r.byzantine_violations = std::move(split.byzantine);
  for (const ClientDriver& d : drivers_) {
    r.reads_ok += d.ops.reads_ok;
    r.writes_ok += d.ops.writes_ok;
    r.ops_failed += d.ops.failed;
  }
  for (const auto& cl : clients_) {
    r.clients += cl->counters();
  }
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    const server::Server& srv = *servers_[j];
    r.server += srv.counters();
    r.max_lease_state_bytes =
        std::max({r.max_lease_state_bytes, max_lease_bytes_[j], srv.lease_state_bytes()});
    r.final_lease_state_bytes = std::max(r.final_lease_state_bytes, srv.lease_state_bytes());
  }
  for (const auto& san : sans_) {
    for (std::uint32_t d = 0; d < cfg_.num_disks; ++d) {
      const auto& disk = san->disk(DiskId{d + 1});
      for (std::size_t ci = 0; ci < clients_.size(); ++ci) {
        const NodeId node = client_node(ci);
        if (const auto n = disk.fenced_rejections(node); n > 0) {
          r.fence_rejects_by_initiator[node] += n;
        }
      }
    }
    const storage::SanStats& x = san->stats();
    r.san.ios_submitted += x.ios_submitted;
    r.san.ios_completed += x.ios_completed;
    r.san.ios_failed_partition += x.ios_failed_partition;
    r.san.ios_failed_fenced += x.ios_failed_fenced;
    r.san.admin_ops += x.admin_ops;
    r.san.bytes_transferred += x.bytes_transferred;
  }
  r.net = net_->stats();
  for (const metrics::Histogram& h : op_latency_ms_) r.op_latency_ms.merge(h);
  r.sim_seconds = now_s();
  r.engine_events = engine_.events_executed();
  for (unsigned sh = 0; sh < shards(); ++sh) {
    if (const obs::Recorder* rec = trace_rec(sh)) r.trace_dropped += rec->dropped_events();
  }
  r.watchdog_trips = watchdog_ != nullptr ? watchdog_->trips() : 0;
  return r;
}

}  // namespace stank::workload
