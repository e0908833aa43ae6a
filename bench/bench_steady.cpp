// Zero-allocation steady-state gates, and a bound on per-client heap.
//
// Two hot paths must run without touching the global allocator once warm:
//
//   renewal_tick   — the lease keep-alive cycle (phase-2 keepalive timer,
//                    KeepAliveReq encode/send, server ACK, opportunistic
//                    renew). This is the per-client background cost every
//                    idle second of a deployment pays, times N clients.
//   grant_release  — an uncontended shared lock() + release() round trip:
//                    client transport retry state, server lock table, reply
//                    cache ring, and the batched ControlNet delivery path.
//
// Each gate warms the system (registration, reply-cache rings, engine slot
// pools, codec buffer pools, FlatMap high-water capacity), snapshots the
// operator-new counter from alloc_hooks, runs the steady window, and FAILS
// THE BENCH (exit 1) if a single allocation happened.
//
// client_heap bounds what a registered client costs the installation: live
// heap bytes per client once N clients have registered, opened one file and
// completed one lock/release. The paper's server keeps no lease state per
// client, so this is transport, lock-table and client bookkeeping — the
// figure the swarm's peak RSS scales with.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "alloc_hooks.hpp"
#include "obs/counters.hpp"
#include "workload/scenario.hpp"

using namespace stank;

namespace {

// Keep-alive renewal traffic only: generators are never started, and the
// tiny run_seconds horizon quiesces the lease-state sampling timer before
// the measured window opens.
std::uint64_t renewal_tick_allocs() {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 8;
  cfg.workload.num_files = 2;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 0.1;
  cfg.lease.tau = sim::local_seconds_d(0.5);  // aggressive renewal cadence
  // Small reply-cache ring so the per-session FlatMap reaches its steady
  // capacity within the warm-up (the default 128 would still be growing —
  // and legitimately allocating — 30 s in at this keep-alive rate).
  cfg.transport.reply_cache_size = 8;
  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(5.0);  // warm: registration, rings, pools
  const std::uint64_t snap = bench::allocs();
  // Debug aid: abort at the first steady-window allocation so a debugger
  // shows the site.
  if (std::getenv("STANK_STEADY_TRAP") != nullptr) bench::trap_next_alloc(true);
  sc.run_until_s(15.0);  // 10 simulated seconds of pure keep-alive traffic
  bench::trap_next_alloc(false);
  return bench::allocs() - snap;
}

struct CycleCtx {
  client::Client* cl{nullptr};
  client::Fd fd{0};
  std::uint64_t remaining{0};
  std::uint64_t completed{0};
  std::uint64_t failed{0};
};

// One uncontended shared-lock acquire/release cycle; re-issues itself until
// the budget is spent. Every lambda captures exactly one pointer, so the
// std::function callbacks stay inline (no allocation from the driver).
void cycle(CycleCtx* c) {
  if (c->remaining == 0) return;
  --c->remaining;
  c->cl->lock(c->fd, protocol::LockMode::kShared, [c](Status st) {
    if (!st.is_ok()) {
      ++c->failed;
      return;
    }
    c->cl->release(c->fd, protocol::LockMode::kNone, [c](Status st2) {
      if (!st2.is_ok()) {
        ++c->failed;
        return;
      }
      ++c->completed;
      cycle(c);
    });
  });
}

std::uint64_t grant_release_allocs(std::uint64_t iters, std::uint64_t* completed_out) {
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = 1;
  cfg.workload.num_files = 1;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 0.1;
  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);

  CycleCtx ctx;
  ctx.cl = &sc.client(0);
  ctx.fd = sc.fd(0, 0);
  // Warm-up: enough cycles to saturate the reply-cache ring (default 128
  // entries) on both sides and reach every FlatMap's high-water capacity.
  ctx.remaining = 400;
  cycle(&ctx);
  sc.run_until_s(20.0);
  if (ctx.remaining != 0 || ctx.failed != 0) {
    std::fprintf(stderr, "steady: warm-up incomplete (%llu left, %llu failed)\n",
                 static_cast<unsigned long long>(ctx.remaining),
                 static_cast<unsigned long long>(ctx.failed));
    return UINT64_MAX;
  }

  ctx.remaining = iters;
  ctx.completed = 0;
  const std::uint64_t snap = bench::allocs();
  cycle(&ctx);
  sc.run_until_s(60.0);
  const std::uint64_t delta = bench::allocs() - snap;
  if (ctx.remaining != 0 || ctx.failed != 0) {
    std::fprintf(stderr, "steady: measured window incomplete (%llu left, %llu failed)\n",
                 static_cast<unsigned long long>(ctx.remaining),
                 static_cast<unsigned long long>(ctx.failed));
    return UINT64_MAX;
  }
  *completed_out = ctx.completed;
  return delta;
}

// Live heap per client: N clients register and open one file (setup), then
// each completes one uncontended shared lock/release. Everything the
// Scenario holds at that point, divided by N.
constexpr std::size_t kHeapClients = 2000;
// A measured value (4399.5 B/client with glibc malloc and libstdc++ on
// x86-64) plus 10%; the two-tier event queue has since lowered the reading
// to 4251.9 B. The count is exact, so growth past it is a real footprint
// regression, not runner noise.
constexpr double kHeapBytesPerClientBound = 4839.0;

double client_heap_bytes() {
  std::vector<CycleCtx> ctx(kHeapClients);
  const std::uint64_t before = bench::live_bytes();
  workload::ScenarioConfig cfg;
  cfg.workload.num_clients = kHeapClients;
  cfg.workload.num_files = 1;
  cfg.workload.file_blocks = 4;
  cfg.workload.run_seconds = 0.1;
  workload::Scenario sc(cfg);
  sc.setup();
  sc.run_until_s(1.0);

  for (std::size_t i = 0; i < kHeapClients; ++i) {
    ctx[i].cl = &sc.client(i);
    ctx[i].fd = sc.fd(i, 0);
    ctx[i].remaining = 1;
    cycle(&ctx[i]);
  }
  sc.run_until_s(2.0);
  for (const CycleCtx& c : ctx) {
    if (c.completed != 1) {
      std::fprintf(stderr, "steady: a client failed its lock/release cycle\n");
      return -1.0;
    }
  }
  return static_cast<double>(bench::live_bytes() - before) / kHeapClients;
}

// The telemetry registry's hot path (add_to / gauge_max / record_hist on a
// frozen obs::Counters) must also be allocation-free: it is called from
// inside the sharded engine's window loop and ShardedNet::post(), both of
// which sit on the steady-state paths gated above. Registration and
// freeze() allocate (once, at setup); increments must not.
std::uint64_t counter_registry_allocs(std::uint64_t iters) {
  obs::Counters ctr;
  const obs::Counters::Id events = ctr.add("engine.events");
  const obs::Counters::Id bytes = ctr.add("net.xshard_bytes");
  const obs::Counters::Id hw = ctr.add("net.mailbox_hw", obs::Counters::Merge::kMax);
  const obs::Counters::HistId wait = ctr.add_hist("barrier.wait_ns");
  ctr.freeze(8);

  const std::uint64_t snap = bench::allocs();
  if (std::getenv("STANK_STEADY_TRAP") != nullptr) bench::trap_next_alloc(true);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint32_t shard = static_cast<std::uint32_t>(i & 7);
    ctr.add_to(shard, events, 1);
    ctr.add_to(shard, bytes, 40 + (i & 63));
    ctr.gauge_max(shard, hw, i & 31);
    ctr.record_hist(shard, wait, 100 + (i & 8191));
  }
  bench::trap_next_alloc(false);
  // Keep the registry observable so the loop cannot be dead-code-eliminated.
  if (ctr.merged(events) != iters) return UINT64_MAX;
  return bench::allocs() - snap;
}

}  // namespace

int main() {
  std::printf("Steady-state allocation gates (operator new interposition)\n\n");

  int rc = 0;

  const std::uint64_t renewal = renewal_tick_allocs();
  std::printf("  renewal_tick : %llu allocations over 10 s x 8 clients of keep-alive "
              "traffic %s\n",
              static_cast<unsigned long long>(renewal), renewal == 0 ? "[ok]" : "[FAIL]");
  if (renewal != 0) rc = 1;

  std::uint64_t completed = 0;
  const std::uint64_t grant = grant_release_allocs(2000, &completed);
  std::printf("  grant_release: %llu allocations over %llu uncontended shared "
              "lock/release cycles %s\n",
              static_cast<unsigned long long>(grant),
              static_cast<unsigned long long>(completed), grant == 0 ? "[ok]" : "[FAIL]");
  if (grant != 0) rc = 1;

  const std::uint64_t ctr_allocs = counter_registry_allocs(100'000);
  std::printf("  counter_inc  : %llu allocations over 100000 armed add/gauge/hist "
              "increments on a frozen 8-shard registry %s\n",
              static_cast<unsigned long long>(ctr_allocs),
              ctr_allocs == 0 ? "[ok]" : "[FAIL]");
  if (ctr_allocs != 0) rc = 1;

  if (rc != 0) {
    std::fprintf(stderr,
                 "\nsteady: ZERO-ALLOCATION GATE FAILED — a hot path touched the global "
                 "allocator after warm-up.\n");
  } else {
    std::printf("\nAll steady-state paths ran allocation-free.\n");
  }

  const double heap = client_heap_bytes();
  const bool heap_ok = heap >= 0.0 && heap <= kHeapBytesPerClientBound;
  std::printf("  client_heap  : %.1f live heap bytes per client after %zu clients register, "
              "open one file and lock/release once (bound %.0f) %s\n",
              heap, kHeapClients, kHeapBytesPerClientBound, heap_ok ? "[ok]" : "[FAIL]");
  if (!heap_ok) {
    std::fprintf(stderr, "\nsteady: PER-CLIENT HEAP GATE FAILED — a registered client costs "
                         "more live heap than the bound.\n");
    rc = 1;
  }
  return rc;
}
