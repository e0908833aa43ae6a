// Experiment M1 — engine microbenchmarks (google-benchmark).
//
// The simulator's own building blocks: event queue throughput, wire codec,
// lock-manager operations, cache operations, and the extent allocator.
// These set the scale for how large a simulated installation the harness
// can drive.
#include <benchmark/benchmark.h>

#include "client/cache.hpp"
#include "protocol/codec.hpp"
#include "server/block_alloc.hpp"
#include "server/lock_manager.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "verify/stamp.hpp"

namespace stank {
namespace {

void BM_EngineScheduleExecute(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      e.schedule_at(sim::SimTime{i}, []() {});
    }
    e.run();
    benchmark::DoNotOptimize(e.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineScheduleExecute)->Arg(1000)->Arg(100000);

void BM_EngineTimerCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    std::vector<sim::TimerId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(e.schedule_at(sim::SimTime{i + 1}, []() {}));
    }
    for (auto id : ids) {
      e.cancel(id);
    }
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineTimerCancel);

void BM_CodecEncodeDecodeLockReq(benchmark::State& state) {
  protocol::Frame f;
  f.kind = protocol::FrameKind::kRequest;
  f.sender = NodeId{100};
  f.msg_id = MsgId{1};
  f.epoch = 1;
  f.body = protocol::RequestBody{protocol::LockReq{FileId{7}, protocol::LockMode::kExclusive}};
  for (auto _ : state) {
    Bytes b = protocol::encode(f);
    auto d = protocol::decode(b);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecEncodeDecodeLockReq);

void BM_CodecEncodeDecodeOpenReply(benchmark::State& state) {
  protocol::Frame f;
  f.kind = protocol::FrameKind::kAck;
  f.sender = NodeId{1};
  f.msg_id = MsgId{1};
  f.epoch = 1;
  protocol::OpenReply rep;
  rep.file = FileId{3};
  rep.attr = {1 << 20, 123456, 9};
  for (std::uint32_t i = 0; i < 16; ++i) {
    rep.extents.push_back(protocol::Extent{DiskId{1}, i * 64, 64});
  }
  f.body = protocol::ReplyBody{rep};
  for (auto _ : state) {
    Bytes b = protocol::encode(f);
    auto d = protocol::decode(b);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecEncodeDecodeOpenReply);

void BM_LockManagerGrantRelease(benchmark::State& state) {
  server::LockManager lm;
  const NodeId c{100};
  const FileId f{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.acquire(c, f, protocol::LockMode::kExclusive));
    benchmark::DoNotOptimize(lm.set_mode(c, f, protocol::LockMode::kNone));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerGrantRelease);

void BM_LockManagerContendedQueue(benchmark::State& state) {
  for (auto _ : state) {
    server::LockManager lm;
    const FileId f{1};
    for (std::uint32_t i = 0; i < 16; ++i) {
      (void)lm.acquire(NodeId{100 + i}, f, protocol::LockMode::kExclusive);
    }
    for (std::uint32_t i = 0; i < 16; ++i) {
      (void)lm.set_mode(NodeId{100 + i}, f, protocol::LockMode::kNone);
    }
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_LockManagerContendedQueue);

void BM_CachePutFindInvalidate(benchmark::State& state) {
  client::BlockCache cache(4096);
  const FileId f{1};
  Bytes block(4096, 0xAB);
  std::uint64_t i = 0;
  for (auto _ : state) {
    cache.put(f, i % 256, block, true);
    benchmark::DoNotOptimize(cache.find(f, i % 256));
    if (++i % 256 == 0) cache.invalidate_file(f);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachePutFindInvalidate);

void BM_AllocatorAllocRelease(benchmark::State& state) {
  server::BlockAllocator alloc(DiskId{1}, 1u << 20);
  sim::Rng rng(1);
  std::vector<std::vector<protocol::Extent>> live;
  for (auto _ : state) {
    if (live.size() < 64 || rng.bernoulli(0.5)) {
      auto r = alloc.allocate(static_cast<std::uint64_t>(rng.uniform_int(1, 64)));
      if (r.ok()) live.push_back(std::move(r).value());
    } else {
      alloc.release(live.back());
      live.pop_back();
    }
  }
  for (const auto& e : live) alloc.release(e);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocatorAllocRelease);

void BM_StampEncodeDecode(benchmark::State& state) {
  verify::Stamp s{FileId{1}, 42, 9000, NodeId{100}};
  for (auto _ : state) {
    Bytes b = verify::make_stamped_block(4096, s);
    benchmark::DoNotOptimize(verify::decode_stamp(b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StampEncodeDecode);

void BM_RngZipf(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.zipf(1024, 0.8));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngZipf);

}  // namespace
}  // namespace stank

BENCHMARK_MAIN();
