// Full-stack client tests: a real Client against a real Server over the
// simulated networks.
#include "client/client.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "server/server.hpp"
#include "verify/stamp.hpp"

namespace stank::client {
namespace {

using protocol::LockMode;

struct Fixture {
  sim::Engine engine;
  net::ControlNet net;
  storage::SanFabric san;
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<Client>> clients;
  static constexpr std::uint32_t kBs = 64;

  explicit Fixture(int num_clients = 2,
                   core::LeaseStrategy strategy = core::LeaseStrategy::kStorageTank,
                   sim::LocalDuration recovery_grace = {})
      : net(engine, sim::Rng(1), {}), san(engine, sim::Rng(2), {}) {
    san.add_disk(DiskId{1}, 4096, kBs);

    server::ServerConfig scfg;
    scfg.id = NodeId{1};
    scfg.lease.tau = sim::local_seconds(5);
    scfg.block_size = kBs;
    scfg.data_disks = {DiskId{1}};
    scfg.strategy = strategy;
    scfg.demand_timeout = sim::local_seconds(3);
    scfg.recovery_grace = recovery_grace;
    server = std::make_unique<server::Server>(engine, net, san, sim::LocalClock(1.0), scfg);
    server->start();

    for (int i = 0; i < num_clients; ++i) {
      ClientConfig ccfg;
      ccfg.id = NodeId{100 + static_cast<std::uint32_t>(i)};
      ccfg.server = NodeId{1};
      ccfg.lease = scfg.lease;
      ccfg.strategy = strategy;
      ccfg.block_size = kBs;
      clients.push_back(
          std::make_unique<Client>(engine, net, san, sim::LocalClock(1.0), ccfg));
      clients.back()->start();
    }
    run_for(0.5);  // registration completes
  }

  Client& c(int i) { return *clients[static_cast<std::size_t>(i)]; }
  void run_for(double s) { engine.run_until(engine.now() + sim::seconds_d(s)); }

  Fd must_open(int ci, const std::string& path, bool create = true) {
    std::optional<Result<Fd>> res;
    c(ci).open(path, create, [&](Result<Fd> r) { res = r; });
    run_for(0.1);
    EXPECT_TRUE(res.has_value() && res->ok()) << "open failed";
    return res->value();
  }

  Status must_write(int ci, Fd fd, std::uint64_t off, Bytes data) {
    std::optional<Status> st;
    c(ci).write(fd, off, std::move(data), [&](Status s) { st = s; });
    run_for(0.2);
    EXPECT_TRUE(st.has_value());
    return st.value_or(Status{ErrorCode::kTimeout});
  }

  Result<Bytes> must_read(int ci, Fd fd, std::uint64_t off, std::uint32_t len) {
    std::optional<Result<Bytes>> res;
    c(ci).read(fd, off, len, [&](Result<Bytes> r) { res = std::move(r); });
    run_for(0.2);
    EXPECT_TRUE(res.has_value());
    return res.has_value() ? std::move(*res) : Result<Bytes>(ErrorCode::kTimeout);
  }
};

TEST(Client, RegistersOnStart) {
  Fixture f;
  EXPECT_TRUE(f.c(0).registered());
  EXPECT_TRUE(f.c(0).accepting());
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kActive);
}

TEST(Client, OpenCreateReadBackEmpty) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  auto r = f.must_read(0, fd, 0, 64);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());  // zero-size file: EOF at once
}

TEST(Client, WriteExtendsAndReadsBack) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  Bytes data(100, 0x5A);
  ASSERT_TRUE(f.must_write(0, fd, 0, data).is_ok());
  auto r = f.must_read(0, fd, 0, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), data);
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kExclusive);
}

TEST(Client, WriteIsWriteBackNotWriteThrough) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 1)).is_ok());
  EXPECT_GT(f.c(0).cache().dirty_count(), 0u);
  // The disk has NOT seen the data yet.
  EXPECT_FALSE(f.san.disk(DiskId{1}).ever_written(0));
}

TEST(Client, FsyncHardensDirtyData) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 7)).is_ok());
  std::optional<Status> st;
  f.c(0).fsync(fd, [&](Status s) { st = s; });
  f.run_for(0.1);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_EQ(f.c(0).cache().dirty_count(), 0u);
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 1u);
}

TEST(Client, UnalignedWriteReadModifyWrite) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(128, 0xAA)).is_ok());
  // Overwrite 10 bytes in the middle, spanning no block boundary.
  ASSERT_TRUE(f.must_write(0, fd, 30, Bytes(10, 0xBB)).is_ok());
  auto r = f.must_read(0, fd, 0, 128);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[29], 0xAA);
  EXPECT_EQ(r.value()[30], 0xBB);
  EXPECT_EQ(r.value()[39], 0xBB);
  EXPECT_EQ(r.value()[40], 0xAA);
}

TEST(Client, CoherentReadAcrossClients) {
  Fixture f;
  Fd fd0 = f.must_open(0, "/shared");
  ASSERT_TRUE(f.must_write(0, fd0, 0, Bytes(64, 0x11)).is_ok());
  // Client 1 reads: server demands client 0 down, dirty data flushes.
  Fd fd1 = f.must_open(1, "/shared", false);
  auto r = f.must_read(1, fd1, 0, 64);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Bytes(64, 0x11));
  // Client 0 was downgraded to shared; both can now read.
  EXPECT_EQ(f.c(0).lock_mode(fd0), LockMode::kShared);
  EXPECT_EQ(f.c(1).lock_mode(fd1), LockMode::kShared);
}

TEST(Client, WriteStealsReadersLocks) {
  Fixture f;
  Fd fd0 = f.must_open(0, "/shared");
  ASSERT_TRUE(f.must_write(0, fd0, 0, Bytes(64, 1)).is_ok());
  Fd fd1 = f.must_open(1, "/shared", false);
  ASSERT_TRUE(f.must_read(1, fd1, 0, 64).ok());
  // Now client 1 writes: demands client 0's shared away.
  ASSERT_TRUE(f.must_write(1, fd1, 0, Bytes(64, 2)).is_ok());
  EXPECT_EQ(f.c(1).lock_mode(fd1), LockMode::kExclusive);
  EXPECT_EQ(f.c(0).lock_mode(fd0), LockMode::kNone);
  // Client 0's cache of the file is gone (unprotected).
  EXPECT_EQ(f.c(0).cache().file_page_count(FileId{1}), 0u);
}

TEST(Client, CacheServesRepeatReadsWithoutIo) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 3)).is_ok());
  std::optional<Status> st;
  f.c(0).fsync(fd, [&](Status s) { st = s; });
  f.run_for(0.1);
  const auto disk_reads = f.san.disk(DiskId{1}).reads_served();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.must_read(0, fd, 0, 64).ok());
  }
  EXPECT_EQ(f.san.disk(DiskId{1}).reads_served(), disk_reads);  // all cache hits
}

TEST(Client, CloseRetainsCacheAndLocks) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 3)).is_ok());
  std::optional<Status> st;
  f.c(0).close(fd, [&](Status s) { st = s; });
  f.run_for(0.1);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_GT(f.c(0).cache().page_count(), 0u);
  // Reads through the old fd fail now.
  auto r = f.must_read(0, fd, 0, 64);
  EXPECT_EQ(r.error(), ErrorCode::kBadHandle);
}

TEST(Client, NackedCloseReportsNacked) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  // The server starts timing client 0 out, so it NACKs its requests.
  f.server->inject_delivery_failure(NodeId{100});
  std::optional<Status> st;
  f.c(0).close(fd, [&](Status s) { st = s; });
  f.run_for(0.1);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->error(), ErrorCode::kNacked);  // as every other call reports it
}

TEST(Client, ExplicitLockAndRelease) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  std::optional<Status> st;
  f.c(0).lock(fd, LockMode::kExclusive, [&](Status s) { st = s; });
  f.run_for(0.1);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kExclusive);

  st.reset();
  f.c(0).release(fd, LockMode::kNone, [&](Status s) { st = s; });
  f.run_for(0.1);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kNone);
}

TEST(Client, ReleaseWithDirtyDataFlushesFirst) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 9)).is_ok());
  std::optional<Status> st;
  f.c(0).release(fd, LockMode::kNone, [&](Status s) { st = s; });
  f.run_for(0.2);
  ASSERT_TRUE(st.has_value() && st->is_ok());
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 1u);  // flushed before ceding
}

TEST(Client, CrashLosesVolatileState) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 9)).is_ok());
  f.c(0).crash();
  EXPECT_TRUE(f.c(0).crashed());
  EXPECT_EQ(f.c(0).cache().page_count(), 0u);
  // API calls fail with kShutdown.
  std::optional<Result<Bytes>> r;
  f.c(0).read(fd, 0, 64, [&](Result<Bytes> res) { r = std::move(res); });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->error(), ErrorCode::kShutdown);
}

TEST(Client, RestartReregistersWithFreshEpoch) {
  Fixture f;
  f.c(0).crash();
  f.run_for(0.1);
  f.c(0).restart();
  f.run_for(0.5);
  EXPECT_TRUE(f.c(0).registered());
  EXPECT_EQ(f.server->session_epoch(NodeId{100}), 2u);
}

TEST(Client, PartitionedClientWalksPhasesAndRecovers) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 4)).is_ok());
  f.net.reachability().sever_pair(NodeId{100}, NodeId{1});
  // tau=5: phase2 at 2.5, phase3 at 3.75, phase4 at 4.25, expiry at 5 (from
  // the last renewal, which was the write's traffic).
  f.run_for(6.5);
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kExpired);
  EXPECT_FALSE(f.c(0).accepting());
  // Phase 4 flushed the dirty block over the healthy SAN.
  EXPECT_EQ(f.san.disk(DiskId{1}).writes_served(), 1u);
  EXPECT_EQ(f.c(0).cache().page_count(), 0u);  // invalidated at expiry

  f.net.reachability().restore_pair(NodeId{100}, NodeId{1});
  f.run_for(8.0);  // server's tau(1+eps) must elapse before re-register
  EXPECT_TRUE(f.c(0).registered());
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kActive);
}

TEST(Client, QuiescedClientRejectsNewOps) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  f.net.reachability().sever_pair(NodeId{100}, NodeId{1});
  // Step until the lease agent reaches phase 3.
  for (int i = 0; i < 200 && f.c(0).lease_phase() != core::LeasePhase::kSuspect; ++i) {
    f.run_for(0.05);
  }
  ASSERT_EQ(f.c(0).lease_phase(), core::LeasePhase::kSuspect);
  std::optional<Result<Bytes>> r;
  f.c(0).read(fd, 0, 64, [&](Result<Bytes> res) { r = std::move(res); });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->error(), ErrorCode::kQuiesced);
}

TEST(Client, OpportunisticRenewalKeepsActiveClientInPhase1) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  // Issue a getattr every second for 20s: regular traffic renews the lease.
  for (int i = 1; i <= 20; ++i) {
    f.engine.schedule_at(f.engine.now() + sim::seconds_d(i), [&f, fd]() {
      f.c(0).getattr(fd, [](Result<protocol::FileAttr>) {});
    });
  }
  f.run_for(21.0);
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kActive);
  EXPECT_EQ(f.c(0).counters().lease_only_msgs, 0u);  // zero keep-alives
  EXPECT_EQ(f.c(0).lease_agent()->keepalives_sent(), 0u);
}

TEST(Client, IdleClientPreservesCacheViaKeepAlives) {
  Fixture f;
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 1)).is_ok());
  std::optional<Status> st;
  f.c(0).fsync(fd, [&](Status s) { st = s; });
  // Nothing else for 20 seconds (4 lease periods).
  f.run_for(20.0);
  EXPECT_EQ(f.c(0).lease_phase(), core::LeasePhase::kActive);
  EXPECT_GT(f.c(0).lease_agent()->keepalives_sent(), 0u);
  EXPECT_GT(f.c(0).cache().page_count(), 0u);  // cache survived
}

TEST(Client, NfsPollModeSeesStaleDataWithinAttrTimeout) {
  // Both clients in NFS mode (no locks, server-shipped data, attr polling).
  // NFS mode needs its own stack (no locks, server-shipped data).
  sim::Engine engine;
  net::ControlNet net(engine, sim::Rng(1), {});
  storage::SanFabric san(engine, sim::Rng(2), {});
  san.add_disk(DiskId{1}, 4096, 64);
  server::ServerConfig scfg;
  scfg.id = NodeId{1};
  scfg.block_size = 64;
  scfg.data_disks = {DiskId{1}};
  server::Server server(engine, net, san, sim::LocalClock(1.0), scfg);
  server.start();

  auto mk = [&](std::uint32_t id) {
    ClientConfig c;
    c.id = NodeId{id};
    c.server = NodeId{1};
    c.block_size = 64;
    c.coherence = CoherenceMode::kNfsPoll;
    c.data_path = DataPath::kServerShipped;
    return std::make_unique<Client>(engine, net, san, sim::LocalClock(1.0), c);
  };
  auto c0 = mk(100), c1 = mk(101);
  c0->start();
  c1->start();
  engine.run_until(engine.now() + sim::seconds(1));

  std::optional<Fd> fd0, fd1;
  c0->open("/f", true, [&](Result<Fd> r) { fd0 = r.value(); });
  engine.run_until(engine.now() + sim::millis(100));
  c1->open("/f", false, [&](Result<Fd> r) { fd1 = r.value(); });
  engine.run_until(engine.now() + sim::millis(100));
  ASSERT_TRUE(fd0 && fd1);

  // c0 writes v1; c1 reads (caches it).
  std::optional<Status> wst;
  c0->write(*fd0, 0, Bytes(64, 1), [&](Status s) { wst = s; });
  engine.run_until(engine.now() + sim::millis(100));
  ASSERT_TRUE(wst && wst->is_ok());
  std::optional<Result<Bytes>> r1;
  c1->read(*fd1, 0, 64, [&](Result<Bytes> r) { r1 = std::move(r); });
  engine.run_until(engine.now() + sim::millis(100));
  ASSERT_TRUE(r1 && r1->ok());
  EXPECT_EQ(r1->value(), Bytes(64, 1));

  // c0 overwrites; c1 re-reads within the attr timeout: stale cache hit.
  c0->write(*fd0, 0, Bytes(64, 2), [](Status) {});
  engine.run_until(engine.now() + sim::millis(200));
  std::optional<Result<Bytes>> r2;
  c1->read(*fd1, 0, 64, [&](Result<Bytes> r) { r2 = std::move(r); });
  engine.run_until(engine.now() + sim::millis(100));
  ASSERT_TRUE(r2 && r2->ok());
  EXPECT_EQ(r2->value(), Bytes(64, 1));  // STALE — NFS semantics

  // After the attr timeout, revalidation notices the mtime change.
  engine.run_until(engine.now() + sim::seconds(4));
  std::optional<Result<Bytes>> r3;
  c1->read(*fd1, 0, 64, [&](Result<Bytes> r) { r3 = std::move(r); });
  engine.run_until(engine.now() + sim::millis(200));
  ASSERT_TRUE(r3 && r3->ok());
  EXPECT_EQ(r3->value(), Bytes(64, 2));  // fresh after poll
}

TEST(Client, BoundedCacheEvictsCleanPages) {
  // A dedicated stack with a 4-page cache.
  sim::Engine engine;
  net::ControlNet net(engine, sim::Rng(1), {});
  storage::SanFabric san(engine, sim::Rng(2), {});
  san.add_disk(DiskId{1}, 4096, 64);
  server::ServerConfig scfg;
  scfg.id = NodeId{1};
  scfg.block_size = 64;
  scfg.data_disks = {DiskId{1}};
  server::Server server(engine, net, san, sim::LocalClock(1.0), scfg);
  server.start();
  ClientConfig ccfg;
  ccfg.id = NodeId{100};
  ccfg.server = NodeId{1};
  ccfg.block_size = 64;
  ccfg.cache_capacity_pages = 4;
  Client c(engine, net, san, sim::LocalClock(1.0), ccfg);
  c.start();
  engine.run_until(sim::SimTime{} + sim::seconds(1));

  std::optional<Fd> fd;
  c.open("/big", true, [&](Result<Fd> r) { fd = r.value(); });
  engine.run_until(engine.now() + sim::millis(100));
  ASSERT_TRUE(fd);
  // Write 12 blocks then fsync (clean); read them back: cache stays bounded.
  for (std::uint64_t b = 0; b < 12; ++b) {
    c.write(*fd, b * 64, Bytes(64, static_cast<std::uint8_t>(b)), [](Status) {});
    engine.run_until(engine.now() + sim::millis(20));
  }
  c.fsync(*fd, [](Status) {});
  engine.run_until(engine.now() + sim::millis(100));
  for (std::uint64_t b = 0; b < 12; ++b) {
    c.read(*fd, b * 64, 64, [](Result<Bytes>) {});
    engine.run_until(engine.now() + sim::millis(20));
  }
  EXPECT_LE(c.cache().page_count(), 4u);
  EXPECT_GT(c.cache().evictions(), 0u);
  // Correctness preserved: re-read returns the right data from disk.
  std::optional<Bytes> got;
  c.read(*fd, 0, 64, [&](Result<Bytes> r) { got = r.ok() ? std::optional<Bytes>(r.value())
                                                         : std::nullopt; });
  engine.run_until(engine.now() + sim::millis(100));
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, Bytes(64, 0));
}

TEST(Client, BoundedCacheFlushesWhenAllDirty) {
  sim::Engine engine;
  net::ControlNet net(engine, sim::Rng(1), {});
  storage::SanFabric san(engine, sim::Rng(2), {});
  san.add_disk(DiskId{1}, 4096, 64);
  server::ServerConfig scfg;
  scfg.id = NodeId{1};
  scfg.block_size = 64;
  scfg.data_disks = {DiskId{1}};
  server::Server server(engine, net, san, sim::LocalClock(1.0), scfg);
  server.start();
  ClientConfig ccfg;
  ccfg.id = NodeId{100};
  ccfg.server = NodeId{1};
  ccfg.block_size = 64;
  ccfg.cache_capacity_pages = 3;
  Client c(engine, net, san, sim::LocalClock(1.0), ccfg);
  c.start();
  engine.run_until(sim::SimTime{} + sim::seconds(1));

  std::optional<Fd> fd;
  c.open("/big", true, [&](Result<Fd> r) { fd = r.value(); });
  engine.run_until(engine.now() + sim::millis(100));
  ASSERT_TRUE(fd);
  for (std::uint64_t b = 0; b < 8; ++b) {
    c.write(*fd, b * 64, Bytes(64, static_cast<std::uint8_t>(b + 1)), [](Status) {});
    engine.run_until(engine.now() + sim::millis(30));
  }
  // Dirty pages were flushed to make room, never dropped.
  EXPECT_GT(san.disk(DiskId{1}).writes_served(), 0u);
  EXPECT_LE(c.cache().page_count(), 4u);  // capacity + at most one in flight
  // Nothing lost: every block readable with its data.
  for (std::uint64_t b = 0; b < 8; ++b) {
    std::optional<Bytes> got;
    c.read(*fd, b * 64, 64, [&](Result<Bytes> r) {
      got = r.ok() ? std::optional<Bytes>(r.value()) : std::nullopt;
    });
    engine.run_until(engine.now() + sim::millis(30));
    ASSERT_TRUE(got);
    EXPECT_EQ(*got, Bytes(64, static_cast<std::uint8_t>(b + 1))) << "block " << b;
  }
}

TEST(Client, BackgroundWritebackHardensDirtyData) {
  sim::Engine engine;
  net::ControlNet net(engine, sim::Rng(1), {});
  storage::SanFabric san(engine, sim::Rng(2), {});
  san.add_disk(DiskId{1}, 4096, 64);
  server::ServerConfig scfg;
  scfg.id = NodeId{1};
  scfg.block_size = 64;
  scfg.data_disks = {DiskId{1}};
  server::Server server(engine, net, san, sim::LocalClock(1.0), scfg);
  server.start();
  ClientConfig ccfg;
  ccfg.id = NodeId{100};
  ccfg.server = NodeId{1};
  ccfg.block_size = 64;
  ccfg.writeback_interval = sim::local_seconds(2);
  Client c(engine, net, san, sim::LocalClock(1.0), ccfg);
  c.start();
  engine.run_until(sim::SimTime{} + sim::seconds(1));
  std::optional<Fd> fd;
  c.open("/wb", true, [&](Result<Fd> r) { fd = r.value(); });
  engine.run_until(engine.now() + sim::millis(100));
  c.write(*fd, 0, Bytes(64, 0x66), [](Status) {});
  engine.run_until(engine.now() + sim::millis(100));
  EXPECT_EQ(c.cache().dirty_count(), 1u);
  // Without any fsync, the background daemon flushes within its period.
  engine.run_until(engine.now() + sim::seconds(3));
  EXPECT_EQ(c.cache().dirty_count(), 0u);
  EXPECT_EQ(san.disk(DiskId{1}).writes_served(), 1u);
}

TEST(Client, VLeaseStrategySendsPerObjectRenewals) {
  Fixture f(1, core::LeaseStrategy::kVLeases);
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 1)).is_ok());
  f.run_for(10.0);  // several renewal periods
  EXPECT_GT(f.c(0).counters().lease_only_msgs, 2u);
  EXPECT_TRUE(f.c(0).registered());
  EXPECT_EQ(f.c(0).lock_mode(fd), LockMode::kExclusive);  // lease kept alive
}

TEST(Client, RefusedReassertionStopsVLeaseRenewals) {
  Fixture f(1, core::LeaseStrategy::kVLeases, sim::local_millis(1));
  Fd fd = f.must_open(0, "/file");
  ASSERT_TRUE(f.must_write(0, fd, 0, Bytes(64, 1)).is_ok());
  // A 1 ms grace period is over before the client learns of the restart
  // (from its next renewal's stale-session reply), so its reassertion is
  // refused.
  f.server->crash();
  f.server->restart();
  f.run_for(5.0);
  ASSERT_TRUE(f.c(0).registered());
  ASSERT_EQ(f.c(0).lock_mode(fd), LockMode::kNone);
  // The dropped lock's object lease is released with it: no more renewals.
  const auto renewals = f.c(0).counters().lease_only_msgs;
  f.run_for(10.0);
  EXPECT_EQ(f.c(0).counters().lease_only_msgs, renewals);
}

TEST(Client, FrangipaniStrategyHeartbeats) {
  Fixture f(1, core::LeaseStrategy::kFrangipani);
  f.run_for(10.0);
  // tau=5, beat frac 0.34 -> a heartbeat roughly every 1.7s, idle or not.
  EXPECT_GE(f.c(0).counters().lease_only_msgs, 5u);
  EXPECT_TRUE(f.c(0).registered());
}

}  // namespace
}  // namespace stank::client
