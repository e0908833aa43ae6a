// The Storage Tank file-system client.
//
// Serves a local process's open/read/write/fsync/close calls by combining:
//   * metadata and locks from the server over the control network,
//   * direct block I/O to shared SAN disks for file data,
//   * a write-back BlockCache protected by data locks,
//   * the four-phase ClientLeaseAgent (the paper's core protocol).
//
// The same class also hosts the comparison configurations the experiment
// tables need:
//   * LeaseStrategy::kVLeases / kFrangipani — per-object renewals or
//     heartbeats instead of opportunistic single-lease renewal,
//   * CoherenceMode::kNfsPoll — attribute polling, no locks (NFS-style),
//   * DataPath::kServerShipped — function-ship all data through the server
//     (the traditional client/server file system of table T5).
//
// All public calls are asynchronous: the simulation is event-driven, so a
// call schedules work and the callback fires when it completes. Callbacks
// always fire exactly once.
//
// A crash splits the client's state in two. Everything it loses (the file
// and fd tables, the page cache's pages, registration flags and timers,
// byzantine state, the server incarnation it last registered with) lives in
// one `Volatile` member that crash() reassigns whole. What survives is the
// machine and its lifetime: the incarnation counter, the fd counter, the
// transport with its monotone msg-id counter, the metric counters and the
// lease machinery, each with its reason at the member.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/heartbeat.hpp"
#include "baselines/v_lease.hpp"
#include "client/byzantine.hpp"
#include "client/cache.hpp"
#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "core/client_lease_agent.hpp"
#include "metrics/counters.hpp"
#include "net/control_net.hpp"
#include "obs/recorder.hpp"
#include "protocol/client_transport.hpp"
#include "storage/san.hpp"

namespace stank::client {

enum class CoherenceMode : std::uint8_t {
  kLocks,    // data locks + callbacks: sequential consistency
  kNfsPoll,  // NFS-style attribute polling: weak consistency by design
};

enum class DataPath : std::uint8_t {
  kDirectSan,      // Storage Tank: clients perform I/O to shared disks
  kServerShipped,  // traditional: all data moves through the server
};

struct ClientConfig {
  NodeId id{100};
  NodeId server{1};
  core::LeaseConfig lease;
  core::LeaseStrategy strategy{core::LeaseStrategy::kStorageTank};
  CoherenceMode coherence{CoherenceMode::kLocks};
  DataPath data_path{DataPath::kDirectSan};
  protocol::TransportConfig transport;
  std::uint32_t block_size{4096};
  // Page-cache capacity (0 = unbounded). When full, clean pages are evicted
  // LRU-first; if everything is dirty, the oldest dirty file is flushed to
  // make clean pages available.
  std::size_t cache_capacity_pages{0};
  // Background write-back period (0 = off): dirty pages are flushed
  // periodically instead of only at demand/fsync/lease-phase-4 time.
  sim::LocalDuration writeback_interval{sim::LocalDuration{0}};
  // Adversarial misbehaviors (all off for an honest client). See
  // client/byzantine.hpp and DESIGN.md §13.
  ByzantineSpec byzantine;
};

using Fd = std::uint32_t;

class Client {
 public:
  Client(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
         sim::LocalClock local_clock, ClientConfig cfg, obs::Recorder* rec = nullptr);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Attaches to the network and (by default) registers with the server.
  void start();
  // Fail-stop crash: detach, drop all volatile state, fire no callbacks.
  void crash();
  // Reboot after crash(): fresh cache, re-register.
  void restart();

  // --- Local-process file API --------------------------------------------
  void open(const std::string& path, bool create, std::function<void(Result<Fd>)> cb);
  void read(Fd fd, std::uint64_t offset, std::uint32_t len,
            std::function<void(Result<Bytes>)> cb);
  void write(Fd fd, std::uint64_t offset, Bytes data, std::function<void(Status)> cb);
  void fsync(Fd fd, std::function<void(Status)> cb);
  void close(Fd fd, std::function<void(Status)> cb);
  void getattr(Fd fd, std::function<void(Result<protocol::FileAttr>)> cb);

  // Explicit data-lock control. lock() acquires at least `mode`; release()
  // downgrades (flushing dirty data first when ceding an exclusive lock).
  // Ordinary reads/writes acquire locks implicitly; these exist for
  // workloads that need to serialize around the lock boundary.
  void lock(Fd fd, protocol::LockMode mode, std::function<void(Status)> cb);
  void release(Fd fd, protocol::LockMode downgrade_to, std::function<void(Status)> cb);
  // Flushes every dirty page (all files) to the SAN.
  void sync_all(std::function<void(Status)> cb);

  // --- Introspection ------------------------------------------------------
  [[nodiscard]] NodeId id() const { return cfg_.id; }
  [[nodiscard]] bool registered() const { return vol_.registered; }
  [[nodiscard]] bool accepting() const { return vol_.accepting; }
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] std::size_t dirty_pages() const { return vol_.cache.dirty_count(); }
  [[nodiscard]] core::LeasePhase lease_phase() const;
  [[nodiscard]] metrics::Counters& counters() { return counters_; }
  [[nodiscard]] const metrics::Counters& counters() const { return counters_; }
  [[nodiscard]] BlockCache& cache() { return vol_.cache; }
  [[nodiscard]] const BlockCache& cache() const { return vol_.cache; }
  [[nodiscard]] const core::ClientLeaseAgent* lease_agent() const { return agent_.get(); }
  [[nodiscard]] protocol::LockMode lock_mode(Fd fd) const;
  [[nodiscard]] const ClientConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t server_incarnation() const { return vol_.server_incarnation; }

  // Observers for benches/tests.
  std::function<void(core::LeasePhase, core::LeasePhase)> on_phase_change;
  std::function<void()> on_registered;

 private:
  struct LockWait {
    protocol::LockMode mode;
    std::function<void(Status)> cb;
  };
  struct FileState {
    FileId file;
    protocol::FileAttr attr;
    std::vector<protocol::Extent> extents;
    // Assigned only by set_mode().
    protocol::LockMode mode{protocol::LockMode::kNone};
    // Generation of the grant `mode` came from (see protocol/messages.hpp).
    std::uint32_t lock_gen{0};
    // Per-grant secret issued with that grant; echoed in UnlockReq /
    // DemandDoneReq so releases prove receipt of the grant they renounce.
    std::uint64_t lock_cookie{0};
    // Bumped on every transition of `mode`. Generations identify steals, not
    // transfers, so async ops capture this instead to detect that the lock
    // they were issued under survived an intervening control-net round.
    std::uint64_t mode_seq{0};
    // Strongest mode requested from the server and not yet resolved.
    protocol::LockMode pending_mode{protocol::LockMode::kNone};
    // A lock demand is being processed (flush in progress): new exclusive
    // acquisitions are deferred until it completes so no page can become
    // dirty between the revocation flush and the downgrade.
    bool revoking{false};
    // Strongest mode the active demand allows us to retain.
    protocol::LockMode revoke_target{protocol::LockMode::kNone};
    // Demand received for a generation we have not seen granted yet
    // (reordered delivery): processed once the grant arrives.
    std::optional<protocol::LockDemand> deferred_demand;
    // Asynchronous cache mutations in flight (read-modify-write fills);
    // demand processing waits for zero before flushing.
    std::uint32_t writes_in_flight{0};
    std::uint32_t open_count{0};
    sim::LocalTime last_validate{};  // NFS mode
    bool attr_known{false};
    // Size/attr rounds are serialized per file and their waiters served in
    // arrival order: two concurrent writes racing independent rounds through
    // a reordering network would apply to the page cache out of issue order.
    struct SizeWait {
      std::uint64_t min_size{0};
      std::function<void(Status)> cb;
    };
    std::vector<SizeWait> size_waiters;
    bool size_round_inflight{false};
    // Callers blocked on a lock upgrade, inline in the file state: the
    // uncontended acquire path never touches a side map or allocates.
    SmallVec<LockWait, 2> lock_waits;
  };
  struct RogueWrite {
    DiskId disk;
    storage::BlockAddr addr{0};
    Bytes data;
  };
  struct CapturedDatagram {
    std::uint32_t epoch{0};
    std::uint32_t incarnation{0};
    Bytes bytes;
  };
  // Everything a crash loses: crash() cancels the timers below and then
  // reassigns the whole record.
  struct Volatile {
    explicit Volatile(BlockCache c) : cache(std::move(c)) {}
    // Its pages are volatile; its hit/miss/eviction totals are metrics and
    // move, emptied, into the next record.
    BlockCache cache;
    // Flat open-addressing table: a handful of open fds per client at steady
    // state, probed once per data op.
    FlatMap<Fd, FileId> fds;
    std::map<FileId, FileState> files;
    bool registered{false};
    bool accepting{false};
    bool register_inflight{false};
    sim::TimerId register_timer{0};
    sim::TimerId writeback_timer{0};
    // Last server incarnation seen in a RegisterReply (0 = never registered).
    std::uint32_t server_incarnation{0};
    // --- Byzantine state (unused when cfg_.byzantine is all-off) -----------
    std::vector<RogueWrite> rogue_writes;
    std::uint64_t rogue_io_key{0};  // captured at expiry; never re-keyed
    std::uint32_t rogue_rounds_left{0};
    std::vector<CapturedDatagram> captured;  // bounded ring of server msgs
    std::size_t captured_next{0};
    sim::TimerId rogue_timer{0};
    sim::TimerId replay_timer{0};
    sim::TimerId forge_timer{0};
  };

  // Setup & lifecycle.
  void wire_transport();
  void build_lease_machinery();
  // start() and restart(): attach, register, arm the periodic timers.
  void power_on();
  void register_with_server();
  void schedule_register_retry();
  void handle_lease_expired();
  // Drops every lock and cached page; with `new_incarnation` also every
  // grant generation (a restarted server numbers them from scratch).
  void invalidate_everything(bool new_incarnation);
  // The server restarted (new incarnation): re-register while the lease is
  // still valid, then reassert every held lock so the cache survives
  // (paper section 6).
  void handle_stale_session();
  void reassert_locks();
  // Cancels every timer in vol_ (crash and destruction).
  void cancel_timers();

  // The admission check every public call starts with: the gate (crash,
  // registration, quiesce, Frangipani lease) and, for calls naming an fd,
  // its lookup. On refusal the error goes to `cb` and false / nullptr comes
  // back; `cb` itself is neither copied nor wrapped.
  template <class Cb>
  bool admit(Cb& cb);
  template <class Cb>
  FileState* admit(Cb& cb, Fd fd);
  FileState* state_of(Fd fd);
  FileState& state_for(FileId file);

  // Locking.
  // The one place FileState::mode changes: bumps mode_seq and, on a drop to
  // kNone, drops the file's cached pages (nothing protects them any more)
  // and, unless `v_lease_lapsed`, releases its V-lease object.
  void set_mode(FileState& fs, protocol::LockMode mode, bool v_lease_lapsed = false);
  // Forgets the revocation in progress and any unresolved lock request; with
  // `new_incarnation` also the grant generation and cookie.
  static void forget_lock_state(FileState& fs, bool new_incarnation);
  void ensure_lock(FileId file, protocol::LockMode mode, std::function<void(Status)> cb);
  // Downgrades the held mode and sends the UnlockReq (any required flush has
  // already completed). The release() fast path reaches here directly.
  void do_unlock(FileId file, protocol::LockMode downgrade_to, std::function<void(Status)> cb);
  // Sends a LockReq for the strongest still-unsatisfied wait, unless one is
  // already pending or a revocation is in progress.
  void pump_lock_requests(FileId file);
  // Applies a grant (from a LockReply or a LockGrant) if its generation is
  // newer than what we hold.
  void apply_grant(FileId file, protocol::LockMode mode, std::uint32_t gen,
                   std::uint64_t cookie);
  void lock_state_changed(FileId file);
  void fail_lock_waits(FileId file, ErrorCode code);
  void fail_all_lock_waits(ErrorCode code);
  void handle_server_msg(const protocol::ServerBody& body);
  void handle_demand(const protocol::LockDemand& d);
  void process_demand(FileId file);  // runs the active demand when quiescent
  void finish_demand(FileId file);

  // Data path.
  void ensure_size(FileState& fs, std::uint64_t min_size, std::function<void(Status)> cb);
  // Starts the next size round for `file` if waiters are queued and no round
  // is in flight; completion serves every waiter the result covers, in order.
  void pump_size_round(FileId file);
  // Fails every queued size waiter (all files) with `why`; used when pending
  // transport requests are abandoned, which silently drops their handlers.
  void abort_size_rounds(ErrorCode why);
  // Locked (or NFS-validated) read: server-shipped or direct by data path.
  void read_data(FileId file, std::uint64_t offset, std::uint32_t len,
                 std::function<void(Result<Bytes>)> cb);
  void read_direct(FileState& fs, std::uint64_t offset, std::uint32_t len,
                   std::function<void(Result<Bytes>)> cb);
  void write_direct(FileState& fs, std::uint64_t offset, Bytes data,
                    std::function<void(Status)> cb);
  void read_shipped(FileState& fs, std::uint64_t offset, std::uint32_t len,
                    std::function<void(Result<Bytes>)> cb);
  void write_shipped(FileState& fs, std::uint64_t offset, Bytes data,
                     std::function<void(Status)> cb);
  // SAN registration key of the current session (storage/io.hpp).
  [[nodiscard]] std::uint64_t io_key() const;
  void fetch_block(FileState& fs, std::uint64_t fb,
                   std::function<void(Result<Bytes>)> cb);
  void write_block_through(FileState& fs, std::uint64_t fb, const Bytes& data,
                           std::function<void(Status)> cb);

  // Flushing.
  void flush_file(FileId file, std::function<void(Status)> cb);
  void flush_all(std::function<void(Status)> cb);
  // Evicts down to the configured capacity (clean LRU pages first; flushes
  // the oldest dirty file when nothing clean remains).
  void enforce_cache_limit();
  void writeback_tick();

  // NFS attribute revalidation.
  void maybe_revalidate(FileState& fs, std::function<void(Status)> cb);

  // Byzantine behavior machinery (no-ops for honest clients).
  // write_after_expiry: freeze the dirty cache (with block locations and the
  // superseded registration's io_key) at expiry time, then keep re-submitting
  // it raw to the SAN — the slow-computer late write the fence must stop.
  void snapshot_rogue_writes();
  void rogue_flush_tick();
  void replay_tick();
  void forge_tick();
  // Tiny deterministic generator for the forged/replayed message choices —
  // client-local so runs stay reproducible without threading the scenario RNG
  // through here.
  std::uint32_t byz_rand();

  // Marks a misbehaviour this client acted out (no-op when untraced).
  void record_byzantine(obs::ByzAction action, std::uint64_t detail = 0);

  // --- Survives a crash ----------------------------------------------------
  storage::SanFabric* san_;
  ClientConfig cfg_;
  sim::NodeClock clock_;
  // Typed flight recorder; null when tracing is off.
  obs::Recorder* rec_{nullptr};

  // Metrics outlive the machine's lives, as every other node's do.
  metrics::Counters counters_;
  // Its msg-id counter must stay monotone across reboots: the server's
  // at-most-once window (one reply cache per client) depends on it.
  protocol::ClientTransport transport_;

  // Lease machinery (one of these by strategy; ST uses agent_). Kept, and
  // deactivated by a crash, because its lifetime totals are read across
  // crashes (perfbench sums lease_agent()->expiries()).
  std::unique_ptr<core::ClientLeaseAgent> agent_;
  std::unique_ptr<baselines::VLeaseClientScheduler> v_sched_;
  std::unique_ptr<baselines::HeartbeatClientScheduler> hb_sched_;

  bool started_{false};
  bool crashed_{false};
  // A reused fd would alias a file opened in a later life.
  Fd next_fd_{1};
  // Incarnation counter: bumped on crash so SAN completions from a previous
  // life are discarded instead of mutating the rebooted client.
  std::uint32_t gen_{0};
  // The forge/replay choice stream continues across reboots rather than
  // rewinding to its seed.
  std::uint32_t byz_rng_state_{0};

  Volatile vol_;
};

}  // namespace stank::client
