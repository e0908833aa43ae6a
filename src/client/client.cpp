#include "client/client.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/assert.hpp"
#include "common/byte_pool.hpp"
#include "common/log.hpp"
#include "common/small_vec.hpp"
#include "protocol/layout.hpp"

namespace stank::client {

using protocol::LockMode;

namespace {

// How often a deregistered client retries RegisterReq.
constexpr sim::LocalDuration kReregisterRetry = sim::local_millis(700);
// V-lease renewal point and Frangipani heartbeat period, as fractions of tau.
constexpr double kVRenewFrac = 0.5;
constexpr double kHbBeatFrac = 0.34;
// NFS mode: how long cached attributes are trusted before re-polling.
constexpr sim::LocalDuration kAttrTimeout = sim::local_seconds(3);

bool mode_leq(LockMode a, LockMode b) {
  return static_cast<int>(a) <= static_cast<int>(b);
}

LockMode mode_max(LockMode a, LockMode b) { return mode_leq(a, b) ? b : a; }

// Fan-in helper for multi-block operations.
struct FanIn {
  std::size_t expected{0};
  std::size_t seen{0};
  Status status{Status::ok()};
  std::function<void(Status)> done;

  void complete(Status s) {
    if (!s.is_ok() && status.is_ok()) {
      status = s;
    }
    if (++seen == expected && done) {
      done(status);
    }
  }
};

// Combined fan state for read_direct: the (pooled) result buffer, the
// caller's callback and the fan-in counters share one allocation instead of
// a buffer shared_ptr + FanIn + a capturing done-closure.
struct ReadFan {
  Bytes buf;
  std::function<void(Result<Bytes>)> cb;
  std::size_t expected{0};
  std::size_t seen{0};
  Status status{Status::ok()};
};

// Same idea for write_direct: the caller's payload rides in the fan.
struct WriteFan {
  Bytes data;
  std::function<void(Status)> cb;
  std::size_t expected{0};
  std::size_t seen{0};
  Status status{Status::ok()};
};

// The one reply decoder: the body an ACK was expected to carry, or the error
// to report instead — kNacked or kTimeout when no ACK came back, the server's
// ErrReply code, or kInvalidArgument for any other body.
template <class Body>
Result<const Body*> expect(const protocol::ReplyEvent& ev) {
  if (ev.outcome != protocol::ReplyOutcome::kAck) {
    return ev.outcome == protocol::ReplyOutcome::kNack ? ErrorCode::kNacked
                                                       : ErrorCode::kTimeout;
  }
  if (const auto* rep = std::get_if<Body>(&ev.body)) return rep;
  const auto* err = std::get_if<protocol::ErrReply>(&ev.body);
  return err != nullptr ? err->code : ErrorCode::kInvalidArgument;
}

// On-stack slice list: steady-state ops span a handful of blocks, so the
// inline capacity makes slicing allocation-free.
using SliceVec = SmallVec<protocol::BlockSlice, 8>;

}  // namespace

Client::Client(sim::Engine& engine, net::ControlNet& net, storage::SanFabric& san,
               sim::LocalClock local_clock, ClientConfig cfg, obs::Recorder* rec)
    : san_(&san),
      cfg_(std::move(cfg)),
      clock_(engine, local_clock),
      rec_(rec),
      transport_(net, clock_, cfg_.id, cfg_.server, counters_, cfg_.transport),
      vol_(BlockCache(cfg_.block_size, cfg_.cache_capacity_pages)) {
  cfg_.lease.validate();
  if (rec_ != nullptr) {
    rec_->bind_engine(engine);
    transport_.set_recorder(rec_);
  }
  wire_transport();
  build_lease_machinery();
}

Client::~Client() { cancel_timers(); }

void Client::wire_transport() {
  transport_.on_ack = [this](sim::LocalTime first_send) {
    if (agent_) {
      if (cfg_.byzantine.lie_send_time) {
        // The lie-about-time attack: renew from a shifted anchor instead of
        // the true first transmission. A positive skew makes this client
        // believe its lease outlives the server's tau(1+eps) suspect math.
        agent_->renew(first_send + sim::local_seconds_d(cfg_.byzantine.send_time_skew_s));
        return;
      }
      agent_->renew(first_send);
    }
  };
  transport_.on_nack = [this]() {
    if (cfg_.byzantine.defy_quiesce) {
      // An honest client treats a NACK as proof it missed a message and
      // rides down; this one pretends it never happened.
      record_byzantine(obs::ByzAction::kNackIgnored);
      return;
    }
    if (agent_) {
      // Section 3.3: the client knows it missed a message; phase 3 directly.
      agent_->on_nack();
    } else {
      // Heartbeat / per-object strategies have no phased ride-down: the
      // session is gone, recover now.
      handle_lease_expired();
    }
  };
  if (cfg_.byzantine.replay_old_session) {
    transport_.wiretap_server_msg = [this](const Bytes& datagram) {
      // Tag with the session the capture happened in; once the session
      // changes these become dead-session datagrams — the replay material.
      CapturedDatagram c{transport_.epoch(), transport_.incarnation(), datagram};
      if (vol_.captured.size() < 16) {
        vol_.captured.push_back(std::move(c));
      } else {
        vol_.captured[vol_.captured_next] = std::move(c);
        vol_.captured_next = (vol_.captured_next + 1) % vol_.captured.size();
      }
    };
  }
  transport_.on_stale_session = [this]() { handle_stale_session(); };
  transport_.on_server_msg = [this](const protocol::ServerBody& body) { handle_server_msg(body); };
  transport_.accept_server_msg = [this](std::uint32_t epoch) {
    if (crashed_ || !vol_.registered) return false;
    if (epoch != transport_.epoch()) return false;
    if (agent_ && !agent_->lease_valid()) return false;
    return true;
  };
}

void Client::build_lease_machinery() {
  switch (cfg_.strategy) {
    case core::LeaseStrategy::kStorageTank: {
      core::ClientLeaseAgent::Hooks hooks;
      hooks.send_keepalive = [this]() {
        // The NULL message: no file-system or lock content, exists to be
        // ACKed (which renews via transport_.on_ack).
        transport_.send_request(protocol::KeepAliveReq{}, [](const protocol::ReplyEvent&) {},
                                /*lease_only=*/true);
      };
      hooks.quiesce = [this]() {
        if (cfg_.byzantine.defy_quiesce) {
          record_byzantine(obs::ByzAction::kQuiesceDefied);
          return;
        }
        vol_.accepting = false;
      };
      hooks.flush = [this]() {
        if (cfg_.byzantine.write_after_expiry) {
          // The paper's "slow computer" weaponized: sit on the dirty data
          // through phase 4 so it is still buffered at expiry, then push it
          // down the SAN under the dead registration (snapshot_rogue_writes).
          record_byzantine(obs::ByzAction::kFlushWithheld);
          return;
        }
        flush_all([](Status) {});
      };
      hooks.expired = [this]() { handle_lease_expired(); };
      hooks.phase_changed = [this](core::LeasePhase from, core::LeasePhase to) {
        if (static_cast<int>(from) >= static_cast<int>(core::LeasePhase::kSuspect) &&
            (to == core::LeasePhase::kActive || to == core::LeasePhase::kRenewal)) {
          // A keep-alive probe rescued an un-NACKed ride-down: the lease is
          // valid again and quiesce is over.
          if (vol_.registered && !crashed_) {
            vol_.accepting = true;
          }
        }
        if (on_phase_change) on_phase_change(from, to);
      };
      agent_ = std::make_unique<core::ClientLeaseAgent>(clock_, cfg_.lease, std::move(hooks));
      if (rec_ != nullptr) {
        agent_->set_recorder(rec_, cfg_.id);
      }
      break;
    }
    case core::LeaseStrategy::kVLeases: {
      baselines::VLeaseClientScheduler::Hooks hooks;
      hooks.send_renew = [this](FileId file) {
        transport_.send_request(
            protocol::RenewObjReq{file},
            [this, file](const protocol::ReplyEvent& ev) {
              if (ev.outcome == protocol::ReplyOutcome::kAck && v_sched_) {
                v_sched_->renewed(file, ev.first_send);
              }
            },
            /*lease_only=*/true);
      };
      hooks.object_expired = [this](FileId file) {
        // This object's lease lapsed: its lock and cached pages are invalid.
        auto it = vol_.files.find(file);
        if (it != vol_.files.end()) {
          set_mode(it->second, LockMode::kNone);
          // Only the unresolved request is forgotten: a revocation in
          // progress still finishes and answers the server's demand.
          it->second.pending_mode = LockMode::kNone;
        }
        fail_lock_waits(file, ErrorCode::kLeaseExpired);
      };
      v_sched_ = std::make_unique<baselines::VLeaseClientScheduler>(clock_, cfg_.lease.tau,
                                                                    kVRenewFrac, std::move(hooks));
      break;
    }
    case core::LeaseStrategy::kFrangipani: {
      baselines::HeartbeatClientScheduler::Hooks hooks;
      hooks.send_heartbeat = [this]() {
        transport_.send_request(
            protocol::KeepAliveReq{},
            [this](const protocol::ReplyEvent& ev) {
              if (ev.outcome == protocol::ReplyOutcome::kAck && hb_sched_) {
                hb_sched_->on_ack(ev.first_send);
              }
            },
            /*lease_only=*/true);
      };
      hooks.expired = [this]() { handle_lease_expired(); };
      hb_sched_ = std::make_unique<baselines::HeartbeatClientScheduler>(
          clock_, cfg_.lease.tau, kHbBeatFrac, std::move(hooks));
      break;
    }
  }
}

void Client::start() {
  STANK_ASSERT(!started_);
  started_ = true;
  power_on();
}

void Client::power_on() {
  transport_.start();
  register_with_server();
  if (cfg_.writeback_interval.ns > 0) {
    vol_.writeback_timer = clock_.schedule_after(cfg_.writeback_interval,
                                                 [this]() { writeback_tick(); });
  }
  if (cfg_.byzantine.replay_old_session) {
    vol_.replay_timer = clock_.schedule_after(sim::local_millis(400), [this]() { replay_tick(); });
  }
  if (cfg_.byzantine.forge_lock_claims) {
    vol_.forge_timer = clock_.schedule_after(sim::local_millis(600), [this]() { forge_tick(); });
  }
}

void Client::writeback_tick() {
  vol_.writeback_timer = 0;
  if (crashed_) return;
  if (vol_.registered && vol_.accepting && vol_.cache.dirty_count() > 0) {
    flush_all([](Status) {});
  }
  vol_.writeback_timer =
      clock_.schedule_after(cfg_.writeback_interval, [this]() { writeback_tick(); });
}

void Client::enforce_cache_limit() {
  while (vol_.cache.over_capacity()) {
    if (vol_.cache.evict_clean_lru().has_value()) {
      continue;
    }
    // Every page is dirty: flush the least-recently-used dirty page's file,
    // then try again — dropping dirty data would be a silent lost update.
    auto od = vol_.cache.oldest_dirty();
    if (!od) break;
    flush_file(od->first, [this](Status st) {
      if (st.is_ok()) enforce_cache_limit();
    });
    break;
  }
}

void Client::cancel_timers() {
  for (sim::TimerId* t : {&vol_.register_timer, &vol_.writeback_timer, &vol_.rogue_timer,
                          &vol_.replay_timer, &vol_.forge_timer}) {
    if (*t != 0) clock_.cancel(*t);
    *t = 0;
  }
}

void Client::crash() {
  if (crashed_) return;
  if (rec_ != nullptr) {
    rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kCrash);
  }
  crashed_ = true;
  ++gen_;
  transport_.stop();
  if (agent_) agent_->deactivate();
  if (hb_sched_) hb_sched_->stop();
  if (v_sched_) v_sched_->clear();
  cancel_timers();
  // Volatile state is gone. Callbacks of in-flight operations are dropped —
  // a crashed machine answers nobody. The pages go back to the buffer pool;
  // the emptied cache keeps its hit/miss/eviction totals, which are metrics.
  vol_.cache.invalidate_all();
  vol_ = Volatile(std::move(vol_.cache));
}

void Client::restart() {
  STANK_ASSERT_MSG(crashed_, "restart() is only valid after crash()");
  if (rec_ != nullptr) {
    rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kRestart, gen_);
  }
  crashed_ = false;
  transport_.set_epoch(0);
  power_on();
}

// ---------------------------------------------------------------------------
// Registration & lease lifecycle

void Client::register_with_server() {
  if (crashed_ || vol_.registered || vol_.register_inflight) return;
  vol_.register_inflight = true;
  transport_.send_request(protocol::RegisterReq{}, [this](const protocol::ReplyEvent& ev) {
    vol_.register_inflight = false;
    const auto rep = expect<protocol::RegisterReply>(ev);
    if (!rep.ok()) {
      schedule_register_retry();
      return;
    }
    const protocol::RegisterReply& reg = *rep.value();
    transport_.set_session(reg.epoch, reg.incarnation);
    const bool server_restarted =
        vol_.server_incarnation != 0 && reg.incarnation != vol_.server_incarnation;
    // ANY re-registration means the server had no session for us — it
    // restarted, or it declared us failed and stole our locks. Either way
    // every lock we think we hold must be re-verified (section 6):
    // reassert_locks() confirms each with the server and drops the ones it
    // refuses. Re-registering and silently keeping the old lock table would
    // serve stale cache under locks granted elsewhere.
    const bool re_registration = vol_.server_incarnation != 0;
    const bool can_reassert =
        re_registration && (agent_ == nullptr || agent_->lease_valid());
    vol_.server_incarnation = reg.incarnation;
    vol_.registered = true;
    if (agent_) {
      if (agent_->lease_valid() && !agent_->nack_latched()) {
        agent_->renew(ev.first_send);
      } else {
        // NACK-latched or expired: the successful registration opened a FRESH
        // contract (new epoch at the server), so the old lease's quiesce
        // discipline no longer applies. renew() would refuse while latched
        // and the client would expire moments after resuming service,
        // dropping writes accepted in the window. Anchor the new lease at the
        // RegisterReq's first send (t_C1).
        agent_->restart(ev.first_send);
      }
      // A retried RegisterReq can anchor so far back that the lease is
      // already in ride-down; resuming service then would buffer dirty data
      // inside the flush window and lose it at expiry. Stay quiesced — the
      // keep-alive probe re-opens service on rescue.
      vol_.accepting = agent_->fs_ops_allowed();
    } else {
      vol_.accepting = true;
    }
    if (hb_sched_) {
      if (hb_sched_->running()) hb_sched_->stop();
      hb_sched_->start();
    }
    if (can_reassert) {
      reassert_locks();
    } else if (re_registration) {
      // Lease not even valid: too late to reassert safely — drop everything.
      // A new incarnation also numbers generations from scratch.
      invalidate_everything(server_restarted);
    }
    if (on_registered) on_registered();
  });
}

void Client::schedule_register_retry() {
  if (crashed_ || vol_.registered || vol_.register_timer != 0) return;
  vol_.register_timer = clock_.schedule_after(kReregisterRetry, [this]() {
    vol_.register_timer = 0;
    register_with_server();
  });
}

void Client::handle_stale_session() {
  if (crashed_ || !vol_.registered) {
    return;  // a registration is already on its way
  }
  vol_.registered = false;
  // Keep the cache, the lock table and the lease: the failure is at the
  // SERVER; our contract (and dirty data) remain valid while the lease
  // lives. Outstanding requests will fail; the workload retries.
  transport_.abandon_pending();
  abort_size_rounds(ErrorCode::kStaleSession);
  register_with_server();
  schedule_register_retry();
}

void Client::reassert_locks() {
  // The new incarnation numbers lock generations from scratch — for EVERY
  // file, not only the ones we reassert, or a stale pre-crash generation
  // would make us discard the new incarnation's grants and demands.
  for (auto& [file, fs] : vol_.files) {
    forget_lock_state(fs, /*new_incarnation=*/true);
  }
  for (auto& [file, fs] : vol_.files) {
    if (fs.mode == LockMode::kNone) continue;
    transport_.send_request(
        protocol::ReassertLockReq{file, fs.mode},
        [this, file_id = file](const protocol::ReplyEvent& ev) {
          auto fit = vol_.files.find(file_id);
          if (fit == vol_.files.end()) return;
          const auto rep = expect<protocol::LockReply>(ev);
          if (rep.ok() && rep.value()->granted) {
            fit->second.lock_gen = rep.value()->gen;
            fit->second.lock_cookie = rep.value()->cookie;
            return;
          }
          // Reassertion refused or lost: the lock (and cache) for this file
          // are gone. Dirty pages here are unprotected — drop them; the
          // checker charges this to the server-crash scenario, exactly the
          // data-loss window reassertion is meant to close.
          set_mode(fit->second, LockMode::kNone);
        });
  }
}

void Client::handle_lease_expired() {
  if (!vol_.registered && !vol_.accepting) {
    return;  // already torn down
  }
  if (cfg_.byzantine.write_after_expiry) {
    // Freeze the dirty cache NOW, before teardown invalidates it: the rogue
    // flusher keeps pushing these pages to the SAN under the superseded key.
    snapshot_rogue_writes();
  }
  vol_.registered = false;
  vol_.accepting = false;
  transport_.abandon_pending();
  abort_size_rounds(ErrorCode::kLeaseExpired);
  fail_all_lock_waits(ErrorCode::kLeaseExpired);
  invalidate_everything(/*new_incarnation=*/false);
  if (hb_sched_ && hb_sched_->running()) hb_sched_->stop();
  if (v_sched_) v_sched_->clear();
  register_with_server();
  schedule_register_retry();
}

void Client::invalidate_everything(bool new_incarnation) {
  for (auto& [file, fs] : vol_.files) {
    set_mode(fs, LockMode::kNone);
    forget_lock_state(fs, new_incarnation);
    fs.attr_known = false;
  }
}

core::LeasePhase Client::lease_phase() const {
  return agent_ ? agent_->phase() : core::LeasePhase::kNoLease;
}

// ---------------------------------------------------------------------------
// Admission & lookup

template <class Cb>
bool Client::admit(Cb& cb) {
  ErrorCode why = ErrorCode::kOk;
  if (crashed_) {
    why = ErrorCode::kShutdown;
  } else if (!vol_.registered) {
    why = ErrorCode::kLeaseExpired;
  } else if (!vol_.accepting) {
    why = ErrorCode::kQuiesced;
  } else if (hb_sched_ && !hb_sched_->lease_valid(clock_.now())) {
    // Frangipani-style lease: validity is checked on every operation (a
    // heartbeat-tick-only check would serve stale cache in the gap between
    // true expiry and the next tick).
    why = ErrorCode::kLeaseExpired;
  }
  if (why == ErrorCode::kOk) return true;
  cb(why);
  return false;
}

template <class Cb>
Client::FileState* Client::admit(Cb& cb, Fd fd) {
  if (!admit(cb)) return nullptr;
  FileState* fs = state_of(fd);
  if (fs == nullptr) cb(ErrorCode::kBadHandle);
  return fs;
}

Client::FileState* Client::state_of(Fd fd) {
  const FileId* file = vol_.fds.find(fd);
  if (file == nullptr) return nullptr;
  auto fit = vol_.files.find(*file);
  return fit == vol_.files.end() ? nullptr : &fit->second;
}

Client::FileState& Client::state_for(FileId file) {
  auto [it, inserted] = vol_.files.try_emplace(file);
  if (inserted) {
    it->second.file = file;
  }
  return it->second;
}

protocol::LockMode Client::lock_mode(Fd fd) const {
  const FileId* file = vol_.fds.find(fd);
  if (file == nullptr) return LockMode::kNone;
  auto fit = vol_.files.find(*file);
  return fit == vol_.files.end() ? LockMode::kNone : fit->second.mode;
}

// ---------------------------------------------------------------------------
// Public file API

void Client::open(const std::string& path, bool create, std::function<void(Result<Fd>)> cb) {
  if (!admit(cb)) return;
  transport_.send_request(
      protocol::OpenReq{path, create}, [this, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        const auto rep = expect<protocol::OpenReply>(ev);
        if (!rep.ok()) {
          cb(rep.error());
          return;
        }
        FileState& fs = state_for(rep.value()->file);
        fs.attr = rep.value()->attr;
        fs.extents = rep.value()->extents;
        fs.attr_known = true;
        fs.last_validate = clock_.now();
        ++fs.open_count;
        const Fd fd = next_fd_++;
        vol_.fds.insert(fd, rep.value()->file);
        cb(fd);
      });
}

void Client::close(Fd fd, std::function<void(Status)> cb) {
  FileState* fs = admit(cb, fd);
  if (fs == nullptr) return;
  if (fs->open_count > 0) {
    --fs->open_count;
  }
  vol_.fds.erase(fd);
  // Cached data and locks are deliberately RETAINED across close — that is
  // the whole point of lease-protected caching.
  transport_.send_request(protocol::CloseReq{fs->file},
                          [cb = std::move(cb)](const protocol::ReplyEvent& ev) {
                            cb(expect<protocol::OkReply>(ev).error());
                          });
}

void Client::getattr(Fd fd, std::function<void(Result<protocol::FileAttr>)> cb) {
  FileState* fs = admit(cb, fd);
  if (fs == nullptr) return;
  transport_.send_request(
      protocol::GetAttrReq{fs->file},
      [this, file = fs->file, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        const auto rep = expect<protocol::AttrReply>(ev);
        if (!rep.ok()) {
          cb(rep.error());
          return;
        }
        FileState& fs2 = state_for(file);
        fs2.attr = rep.value()->attr;
        fs2.extents = rep.value()->extents;
        fs2.attr_known = true;
        fs2.last_validate = clock_.now();
        cb(rep.value()->attr);
      });
}

void Client::read(Fd fd, std::uint64_t offset, std::uint32_t len,
                  std::function<void(Result<Bytes>)> cb) {
  FileState* fs = admit(cb, fd);
  if (fs == nullptr) return;
  auto then_read = [this, file = fs->file, offset, len, cb = std::move(cb)](Status st) mutable {
    if (!st.is_ok()) {
      cb(st.error());
      return;
    }
    read_data(file, offset, len, std::move(cb));
  };
  if (cfg_.coherence == CoherenceMode::kNfsPoll) {
    maybe_revalidate(*fs, std::move(then_read));
  } else {
    ensure_lock(fs->file, LockMode::kShared, std::move(then_read));
  }
}

void Client::read_data(FileId file, std::uint64_t offset, std::uint32_t len,
                       std::function<void(Result<Bytes>)> cb) {
  FileState& fs = state_for(file);
  if (cfg_.data_path == DataPath::kServerShipped) {
    read_shipped(fs, offset, len, std::move(cb));
  } else {
    read_direct(fs, offset, len, std::move(cb));
  }
}

void Client::write(Fd fd, std::uint64_t offset, Bytes data, std::function<void(Status)> cb) {
  FileState* fs = admit(cb, fd);
  if (fs == nullptr) return;
  if (cfg_.coherence == CoherenceMode::kNfsPoll ||
      cfg_.data_path == DataPath::kServerShipped) {
    // Traditional/NFS path: ship the write; the server grows the file.
    write_shipped(*fs, offset, std::move(data), std::move(cb));
    return;
  }

  const FileId file = fs->file;
  ensure_lock(file, LockMode::kExclusive,
              [this, file, offset, data = std::move(data), cb = std::move(cb)](Status st) mutable {
                if (!st.is_ok()) {
                  cb(st);
                  return;
                }
                FileState& fs2 = state_for(file);
                const std::uint64_t seq = fs2.mode_seq;
                const std::uint64_t end = offset + data.size();
                ensure_size(fs2, end,
                            [this, file, offset, seq, data = std::move(data),
                             cb = std::move(cb)](Status st2) mutable {
                              if (!st2.is_ok()) {
                                cb(st2);
                                return;
                              }
                              // The size round crossed the control net; the
                              // exclusive lock may have been revoked (demand,
                              // lease ride-down) and even re-granted under it.
                              // Buffering now would dirty the cache under a
                              // serialization this write was not issued in —
                              // fail and let the caller retry afresh.
                              auto fit = vol_.files.find(file);
                              if (fit == vol_.files.end() || fit->second.mode_seq != seq ||
                                  fit->second.mode != LockMode::kExclusive ||
                                  fit->second.revoking) {
                                cb(Status{ErrorCode::kLockConflict});
                                return;
                              }
                              write_direct(fit->second, offset, std::move(data),
                                           std::move(cb));
                            });
              });
}

void Client::lock(Fd fd, protocol::LockMode mode, std::function<void(Status)> cb) {
  FileState* fs = admit(cb, fd);
  if (fs == nullptr) return;
  ensure_lock(fs->file, mode, std::move(cb));
}

void Client::release(Fd fd, protocol::LockMode downgrade_to, std::function<void(Status)> cb) {
  FileState* fs = admit(cb, fd);
  if (fs == nullptr) return;
  const FileId file = fs->file;
  if (fs->revoking) {
    cb(ErrorCode::kLockConflict);  // a server demand is already downgrading us
    return;
  }
  if (mode_leq(fs->mode, downgrade_to)) {
    cb(Status::ok());
    return;
  }

  if (fs->mode == LockMode::kExclusive && vol_.cache.has_dirty(file)) {
    flush_file(file, [this, file, downgrade_to, cb = std::move(cb)](Status st) mutable {
      if (!st.is_ok()) {
        // Keep the lock — dirty data must not be orphaned — but tell the
        // caller the release did not happen.
        cb(st);
        return;
      }
      do_unlock(file, downgrade_to, std::move(cb));
    });
    return;
  }
  // Fast path (shared lock, or exclusive with a clean cache): no flush, no
  // shared_ptr dance, no allocation.
  do_unlock(file, downgrade_to, std::move(cb));
}

void Client::do_unlock(FileId file, LockMode downgrade_to, std::function<void(Status)> cb) {
  auto fit = vol_.files.find(file);
  if (fit == vol_.files.end()) {
    cb(Status{ErrorCode::kShutdown});
    return;
  }
  FileState& fs = fit->second;
  set_mode(fs, downgrade_to);
  transport_.send_request(protocol::UnlockReq{file, downgrade_to, fs.lock_gen, fs.lock_cookie},
                          [cb = std::move(cb)](const protocol::ReplyEvent& ev) {
                            cb(expect<protocol::OkReply>(ev).error());
                          });
}

void Client::sync_all(std::function<void(Status)> cb) {
  if (!admit(cb)) return;
  flush_all(std::move(cb));
}

void Client::fsync(Fd fd, std::function<void(Status)> cb) {
  FileState* fs = admit(cb, fd);
  if (fs == nullptr) return;
  flush_file(fs->file, std::move(cb));
}

// ---------------------------------------------------------------------------
// Locking

void Client::set_mode(FileState& fs, LockMode mode, bool v_lease_lapsed) {
  fs.mode = mode;
  ++fs.mode_seq;
  if (mode == LockMode::kNone) {
    vol_.cache.invalidate_file(fs.file);
    if (v_sched_ && !v_lease_lapsed) v_sched_->object_released(fs.file);
  }
}

void Client::forget_lock_state(FileState& fs, bool new_incarnation) {
  fs.pending_mode = LockMode::kNone;
  fs.revoking = false;
  fs.revoke_target = LockMode::kNone;
  fs.deferred_demand.reset();
  if (new_incarnation) {
    fs.lock_gen = 0;
    fs.lock_cookie = 0;
  }
}

void Client::ensure_lock(FileId file, LockMode mode, std::function<void(Status)> cb) {
  FileState& fs = state_for(file);
  // Per-object (V-lease) strategy: the lock is only usable while its lease
  // lives. Checked on EVERY operation, not only at scheduler ticks, so an
  // expired object can never serve stale cache in the detection gap. The
  // object itself is left to the scheduler, whose expiry fails the waiters.
  if (v_sched_ && fs.mode != LockMode::kNone &&
      !v_sched_->object_valid(file, clock_.now())) {
    set_mode(fs, LockMode::kNone, /*v_lease_lapsed=*/true);
  }
  // An exclusive request must not overtake an in-progress revocation: a page
  // dirtied between the revocation flush and the downgrade would survive
  // under an insufficient lock.
  const bool blocked_by_revoke = fs.revoking && mode == LockMode::kExclusive;
  if (mode_leq(mode, fs.mode) && !blocked_by_revoke) {
    cb(Status::ok());
    return;
  }
  if (rec_ != nullptr) {
    // Lock-grant latency span: queued-acquire to callback (cache hits above
    // are free and would only dilute the percentiles).
    const sim::SimTime start = clock_.engine().now();
    cb = [this, start, inner = std::move(cb)](Status st) {
      rec_->span(obs::SpanKind::kLockAcquire, (clock_.engine().now() - start).millis());
      inner(st);
    };
  }
  fs.lock_waits.push_back(LockWait{mode, std::move(cb)});
  pump_lock_requests(file);
}

void Client::pump_lock_requests(FileId file) {
  auto fit = vol_.files.find(file);
  if (fit == vol_.files.end()) return;
  FileState& fs = fit->second;
  if (fs.revoking) return;  // re-pumped when the demand completes

  if (fs.lock_waits.empty()) return;
  LockMode want = LockMode::kNone;
  for (const auto& w : fs.lock_waits) {
    want = mode_max(want, w.mode);
  }
  if (mode_leq(want, fs.mode)) {
    lock_state_changed(file);
    return;
  }
  if (mode_leq(want, fs.pending_mode)) {
    return;  // a sufficient request is already in flight
  }
  fs.pending_mode = want;
  transport_.send_request(
      protocol::LockReq{file, want}, [this, file](const protocol::ReplyEvent& ev) {
        auto fit2 = vol_.files.find(file);
        if (fit2 == vol_.files.end()) {
          return;  // state discarded (crash) while in flight
        }
        const auto rep = expect<protocol::LockReply>(ev);
        if (rep.ok()) {
          if (rep.value()->granted) {
            fit2->second.pending_mode = LockMode::kNone;
            apply_grant(file, rep.value()->mode, rep.value()->gen, rep.value()->cookie);
          }
          // Queued: pending_mode stays set; a LockGrant will arrive.
          return;
        }
        fit2->second.pending_mode = LockMode::kNone;
        if (rep.error() == ErrorCode::kRetryLater || rep.error() == ErrorCode::kStaleSession) {
          // Post-restart grace period (or session refresh in flight): keep
          // the waiters and retry shortly.
          clock_.schedule_after(sim::local_millis(300),
                                [this, file]() { pump_lock_requests(file); });
          return;
        }
        fail_lock_waits(file, rep.error());
      });
}

void Client::apply_grant(FileId file, LockMode mode, std::uint32_t gen, std::uint64_t cookie) {
  FileState& fs = state_for(file);
  if (gen <= fs.lock_gen) {
    return;  // stale or duplicate grant
  }
  fs.lock_gen = gen;
  fs.lock_cookie = cookie;
  set_mode(fs, mode);
  if (mode_leq(fs.pending_mode, mode)) {
    fs.pending_mode = LockMode::kNone;
  }
  if (v_sched_) v_sched_->object_acquired(file);
  lock_state_changed(file);

  // A demand that arrived ahead of this grant can be processed now.
  if (fs.deferred_demand) {
    if (fs.deferred_demand->gen < fs.lock_gen) {
      fs.deferred_demand.reset();
    } else if (fs.deferred_demand->gen == fs.lock_gen) {
      const protocol::LockDemand d = *fs.deferred_demand;
      fs.deferred_demand.reset();
      handle_demand(d);
    }
  }
  pump_lock_requests(file);
}

void Client::lock_state_changed(FileId file) {
  FileState& fs = state_for(file);
  if (fs.lock_waits.empty()) return;
  // Move satisfied waiters out before invoking: a callback may re-enter
  // ensure_lock/pump and mutate the wait list. Inline capacity keeps the
  // single-waiter common case allocation-free.
  SmallVec<LockWait, 2> ready;
  auto& waits = fs.lock_waits;
  for (auto* it = waits.begin(); it != waits.end();) {
    if (mode_leq(it->mode, fs.mode)) {
      ready.push_back(std::move(*it));
      it = waits.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& w : ready) {
    w.cb(Status::ok());
  }
}

void Client::fail_lock_waits(FileId file, ErrorCode code) {
  auto fit = vol_.files.find(file);
  if (fit == vol_.files.end() || fit->second.lock_waits.empty()) return;
  SmallVec<LockWait, 2> failed = std::move(fit->second.lock_waits);
  for (auto& w : failed) {
    w.cb(Status{code});
  }
}

void Client::fail_all_lock_waits(ErrorCode code) {
  // Collect every waiter first: a failure callback may re-enter and mutate
  // the file table (this is the expiry/teardown path, not a hot one).
  std::vector<LockWait> failed;
  for (auto& [file, fs] : vol_.files) {
    for (auto& w : fs.lock_waits) {
      failed.push_back(std::move(w));
    }
    fs.lock_waits.clear();
  }
  for (auto& w : failed) {
    w.cb(Status{code});
  }
}

void Client::handle_server_msg(const protocol::ServerBody& body) {
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, protocol::LockDemand>) {
          handle_demand(msg);
        } else if constexpr (std::is_same_v<T, protocol::LockGrant>) {
          apply_grant(msg.file, msg.mode, msg.gen, msg.cookie);
        }
      },
      body);
}

void Client::handle_demand(const protocol::LockDemand& d) {
  if (cfg_.byzantine.ack_without_release) {
    // The transport already ACKed the datagram; swallowing the demand here
    // means the server sees a compliant-looking client that never flushes,
    // downgrades, or answers — the revocation must time out instead.
    record_byzantine(obs::ByzAction::kDemandSwallowed, d.file.value());
    return;
  }
  FileState& fs = state_for(d.file);
  if (d.gen < fs.lock_gen) {
    return;  // demand against a superseded incarnation: a newer grant exists
  }
  if (d.gen > fs.lock_gen) {
    // The grant establishing this incarnation has not reached us yet
    // (datagram reordering): defer until it does.
    if (!fs.deferred_demand || fs.deferred_demand->gen < d.gen) {
      fs.deferred_demand = d;
    }
    return;
  }

  if (fs.revoking) {
    // A deeper demand for the same incarnation: fold into the active one.
    if (mode_leq(d.max_mode, fs.revoke_target)) {
      fs.revoke_target = d.max_mode;
    }
    return;
  }
  if (mode_leq(fs.mode, d.max_mode)) {
    // Already compliant (duplicate demand): confirm.
    transport_.send_request(protocol::DemandDoneReq{d.file, fs.mode, d.gen, fs.lock_cookie},
                            [](const protocol::ReplyEvent&) {});
    return;
  }

  fs.revoking = true;
  fs.revoke_target = d.max_mode;
  process_demand(d.file);
}

void Client::process_demand(FileId file) {
  auto fit = vol_.files.find(file);
  if (fit == vol_.files.end()) return;
  FileState& fs = fit->second;
  if (!fs.revoking) return;  // resolved meanwhile (e.g. lease expiry)

  if (fs.writes_in_flight > 0) {
    // Let in-flight cache mutations land before the revocation flush.
    clock_.schedule_after(sim::local_millis(1), [this, file]() { process_demand(file); });
    return;
  }

  if (fs.mode == LockMode::kExclusive && vol_.cache.has_dirty(file)) {
    // Dirty data protected by this lock must reach the disk before the lock
    // is ceded (the consistency guarantee fencing alone cannot provide).
    flush_file(file, [this, file](Status st) {
      auto fit2 = vol_.files.find(file);
      if (fit2 == vol_.files.end() || !fit2->second.revoking) return;
      if (st.is_ok()) {
        finish_demand(file);
      } else {
        // Cannot flush (SAN fault / fenced). Keep the lock and retry; the
        // server's demand timeout will engage the lease protocol if this
        // never succeeds.
        clock_.schedule_after(sim::local_millis(500),
                              [this, file]() { process_demand(file); });
      }
    });
    return;
  }
  finish_demand(file);
}

void Client::finish_demand(FileId file) {
  auto fit = vol_.files.find(file);
  if (fit == vol_.files.end()) return;
  FileState& fs = fit->second;
  if (!fs.revoking) return;
  const std::uint32_t gen = fs.lock_gen;
  if (!mode_leq(fs.mode, fs.revoke_target)) {
    // Relinquishing entirely (kNone) also drops the now unprotected pages.
    set_mode(fs, fs.revoke_target);
  }
  fs.revoking = false;
  transport_.send_request(protocol::DemandDoneReq{file, fs.mode, gen, fs.lock_cookie},
                          [](const protocol::ReplyEvent&) {});
  pump_lock_requests(file);
}

// ---------------------------------------------------------------------------
// Size management

void Client::ensure_size(FileState& fs, std::uint64_t min_size, std::function<void(Status)> cb) {
  // Fast path only when nothing is queued: letting a fresh write skip past
  // waiters parked behind an in-flight round would buffer it ahead of writes
  // that drew earlier versions under the same lock.
  if (fs.attr_known && fs.attr.size >= min_size && fs.size_waiters.empty() &&
      !fs.size_round_inflight) {
    cb(Status::ok());
    return;
  }
  fs.size_waiters.push_back(FileState::SizeWait{min_size, std::move(cb)});
  if (!fs.size_round_inflight) {
    pump_size_round(fs.file);
  }
}

void Client::pump_size_round(FileId file) {
  auto fit = vol_.files.find(file);
  if (fit == vol_.files.end()) return;
  FileState& fs = fit->second;
  if (fs.size_waiters.empty()) {
    fs.size_round_inflight = false;
    return;
  }
  fs.size_round_inflight = true;
  std::uint64_t want = 0;
  for (const auto& w : fs.size_waiters) {
    want = std::max(want, w.min_size);
  }
  transport_.send_request(
      protocol::SetSizeReq{file, want, /*truncate=*/false},
      [this, file](const protocol::ReplyEvent& ev) {
        auto fit2 = vol_.files.find(file);
        if (fit2 == vol_.files.end()) return;
        FileState& fs2 = fit2->second;
        fs2.size_round_inflight = false;

        const auto rep = expect<protocol::AttrReply>(ev);
        const Status st = rep.error();
        if (rep.ok()) {
          fs2.attr = rep.value()->attr;
          fs2.extents = rep.value()->extents;
          fs2.attr_known = true;
        }

        if (!st.is_ok()) {
          auto waiters = std::move(fs2.size_waiters);
          fs2.size_waiters.clear();
          for (auto& w : waiters) {
            w.cb(st);
          }
          pump_size_round(file);  // arrivals queued by the callbacks
          return;
        }
        // Serve the satisfied prefix strictly in arrival order; a waiter
        // queued mid-flight may need a bigger size and starts a new round.
        while (true) {
          auto fit3 = vol_.files.find(file);
          if (fit3 == vol_.files.end()) return;
          FileState& fs3 = fit3->second;
          if (fs3.size_waiters.empty() || !fs3.attr_known ||
              fs3.attr.size < fs3.size_waiters.front().min_size) {
            break;
          }
          auto cb = std::move(fs3.size_waiters.front().cb);
          fs3.size_waiters.erase(fs3.size_waiters.begin());
          cb(Status::ok());
        }
        pump_size_round(file);
      });
}

void Client::abort_size_rounds(ErrorCode why) {
  std::vector<std::function<void(Status)>> cbs;
  for (auto& [file, fs] : vol_.files) {
    for (auto& w : fs.size_waiters) {
      cbs.push_back(std::move(w.cb));
    }
    fs.size_waiters.clear();
    fs.size_round_inflight = false;
  }
  for (auto& cb : cbs) {
    cb(Status{why});
  }
}

// ---------------------------------------------------------------------------
// Direct SAN data path

std::uint64_t Client::io_key() const {
  return (static_cast<std::uint64_t>(vol_.server_incarnation) << 32) | transport_.epoch();
}

void Client::fetch_block(FileState& fs, std::uint64_t fb, std::function<void(Result<Bytes>)> cb) {
  DiskId disk;
  storage::BlockAddr addr;
  if (!protocol::locate_block(fs.extents, fb, disk, addr)) {
    cb(ErrorCode::kIoError);
    return;
  }
  storage::IoRequest io;
  io.initiator = cfg_.id;
  io.disk = disk;
  io.op = storage::IoOp::kRead;
  io.addr = addr;
  io.count = 1;
  io.io_key = io_key();
  const std::uint32_t gen = gen_;
  san_->submit(std::move(io), [this, gen, cb = std::move(cb)](storage::IoResult res) {
    if (gen != gen_) return;  // completion from a previous incarnation
    if (!res.status.is_ok()) {
      cb(res.status.error());
      return;
    }
    cb(std::move(res.data));
  });
}

void Client::read_direct(FileState& fs, std::uint64_t offset, std::uint32_t len,
                         std::function<void(Result<Bytes>)> cb) {
  const std::uint64_t size = fs.attr.size;
  const std::uint64_t end = std::min<std::uint64_t>(size, offset + len);
  if (end <= offset) {
    cb(Bytes{});
    return;
  }
  const std::uint64_t n = end - offset;
  SliceVec slices;
  if (!protocol::slice_range_into(fs.extents, cfg_.block_size, offset, n, slices)) {
    cb(ErrorCode::kIoError);
    return;
  }

  const FileId file = fs.file;
  auto fan = std::make_shared<ReadFan>();
  fan->buf = take_buf();
  fan->buf.resize(n);  // slices overwrite every byte; resize just sizes it
  fan->cb = std::move(cb);
  fan->expected = slices.size();
  auto complete = [this, fan](Status st) {
    if (!st.is_ok() && fan->status.is_ok()) fan->status = st;
    if (++fan->seen != fan->expected) return;
    if (!fan->status.is_ok()) {
      recycle_buf(std::move(fan->buf));
      fan->cb(fan->status.error());
      return;
    }
    enforce_cache_limit();
    fan->cb(std::move(fan->buf));
  };

  // Pages fetched from disk may only enter the cache if the lock that
  // protected the fetch is STILL held, same incarnation — otherwise a fetch
  // completing after a demand invalidated this file would pollute the cache
  // with an unprotected (and soon stale) page.
  const std::uint32_t fetch_gen = fs.lock_gen;
  for (const auto& s : slices) {
    if (BlockCache::Page* page = vol_.cache.find(file, s.file_block)) {
      std::copy_n(page->data.begin() + s.offset_in_block, s.len,
                  fan->buf.begin() + static_cast<std::ptrdiff_t>(s.buf_offset));
      complete(Status::ok());
      continue;
    }
    fetch_block(fs, s.file_block, [this, file, s, fan, fetch_gen, complete](Result<Bytes> res) {
      if (!res.ok()) {
        complete(Status{res.error()});
        return;
      }
      std::copy_n(res.value().begin() + s.offset_in_block, s.len,
                  fan->buf.begin() + static_cast<std::ptrdiff_t>(s.buf_offset));
      auto fit2 = vol_.files.find(file);
      const bool lock_intact = fit2 != vol_.files.end() && fit2->second.lock_gen == fetch_gen &&
                               fit2->second.mode != LockMode::kNone;
      const bool cacheable =
          cfg_.coherence == CoherenceMode::kNfsPoll ? true : lock_intact;
      // Also never clobber a page that appeared (dirty) while we fetched.
      if (cacheable && vol_.cache.peek(file, s.file_block) == nullptr) {
        vol_.cache.put(file, s.file_block, std::move(res).value(), /*dirty=*/false);
      } else {
        recycle_buf(std::move(res).value());
      }
      complete(Status::ok());
    });
  }
}

void Client::write_direct(FileState& fs, std::uint64_t offset, Bytes data,
                          std::function<void(Status)> cb) {
  SliceVec slices;
  if (!protocol::slice_range_into(fs.extents, cfg_.block_size, offset, data.size(), slices)) {
    recycle_buf(std::move(data));
    cb(Status{ErrorCode::kIoError});
    return;
  }

  const FileId file = fs.file;
  auto fan = std::make_shared<WriteFan>();
  fan->data = std::move(data);
  fan->cb = std::move(cb);
  fan->expected = slices.size();
  auto complete = [this, fan](Status st) {
    if (!st.is_ok() && fan->status.is_ok()) fan->status = st;
    if (++fan->seen != fan->expected) return;
    enforce_cache_limit();
    recycle_buf(std::move(fan->data));  // every slice has consumed its span
    fan->cb(fan->status);
  };

  for (const auto& s : slices) {
    if (s.len == cfg_.block_size) {
      Bytes block = take_buf();
      block.assign(fan->data.begin() + static_cast<std::ptrdiff_t>(s.buf_offset),
                   fan->data.begin() + static_cast<std::ptrdiff_t>(s.buf_offset + s.len));
      vol_.cache.put(file, s.file_block, std::move(block), /*dirty=*/true);
      complete(Status::ok());
      continue;
    }
    if (BlockCache::Page* page = vol_.cache.find(file, s.file_block)) {
      std::copy_n(fan->data.begin() + static_cast<std::ptrdiff_t>(s.buf_offset), s.len,
                  page->data.begin() + s.offset_in_block);
      page->dirty = true;
      complete(Status::ok());
      continue;
    }
    // Partial write of an uncached block: read-modify-write. Counted as an
    // in-flight write so a concurrent lock demand waits for it.
    ++fs.writes_in_flight;
    const std::uint64_t seq = fs.mode_seq;
    fetch_block(fs, s.file_block, [this, file, s, seq, fan, complete](Result<Bytes> res) {
      auto fit2 = vol_.files.find(file);
      if (fit2 != vol_.files.end() && fit2->second.writes_in_flight > 0) {
        --fit2->second.writes_in_flight;
      }
      if (!res.ok()) {
        complete(Status{res.error()});
        return;
      }
      // Demands wait on writes_in_flight, but a lease ride-down does not:
      // if the lock changed while the fill was in flight, the dirty put
      // would outlive its serialization.
      if (fit2 == vol_.files.end() || fit2->second.mode_seq != seq ||
          fit2->second.mode != LockMode::kExclusive) {
        recycle_buf(std::move(res).value());
        complete(Status{ErrorCode::kLockConflict});
        return;
      }
      Bytes block = std::move(res).value();
      std::copy_n(fan->data.begin() + static_cast<std::ptrdiff_t>(s.buf_offset), s.len,
                  block.begin() + s.offset_in_block);
      vol_.cache.put(file, s.file_block, std::move(block), /*dirty=*/true);
      complete(Status::ok());
    });
  }
}

// ---------------------------------------------------------------------------
// Server-shipped data path (traditional / NFS baselines)

void Client::read_shipped(FileState& fs, std::uint64_t offset, std::uint32_t len,
                          std::function<void(Result<Bytes>)> cb) {
  const FileId file = fs.file;

  // Serve entirely from cache when possible (NFS semantics: the cache is
  // trusted while the attributes are fresh — possibly stale data).
  const std::uint64_t end = std::min<std::uint64_t>(fs.attr.size, offset + len);
  if (end > offset) {
    const std::uint64_t n = end - offset;
    const std::uint32_t bs = cfg_.block_size;
    bool all_cached = true;
    for (std::uint64_t fb = offset / bs; fb <= (end - 1) / bs; ++fb) {
      if (vol_.cache.peek(file, fb) == nullptr) {
        all_cached = false;
        break;
      }
    }
    if (all_cached) {
      Bytes out = take_buf();
      out.resize(n);
      for (std::uint64_t pos = offset; pos < end;) {
        const std::uint64_t fb = pos / bs;
        const std::uint32_t in_block = static_cast<std::uint32_t>(pos % bs);
        const std::uint32_t take =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(bs - in_block, end - pos));
        const BlockCache::Page* page = vol_.cache.find(file, fb);
        std::copy_n(page->data.begin() + in_block, take,
                    out.begin() + static_cast<std::ptrdiff_t>(pos - offset));
        pos += take;
      }
      cb(std::move(out));
      return;
    }
  }

  transport_.send_request(
      protocol::ReadDataReq{file, offset, len},
      [this, file, offset, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        const auto rep = expect<protocol::DataReply>(ev);
        if (!rep.ok()) {
          cb(rep.error());
          return;
        }
        const Bytes& data = rep.value()->data;
        FileState& fs2 = state_for(file);
        // The server clamped by its own size; what came back proves the file
        // extends at least this far.
        fs2.attr.size = std::max<std::uint64_t>(fs2.attr.size, offset + data.size());
        // Cache fully covered blocks for future hits (NFS-style caching).
        const std::uint32_t bs = cfg_.block_size;
        if (offset % bs == 0) {
          for (std::uint64_t off = 0; off + bs <= data.size(); off += bs) {
            Bytes block = take_buf();
            block.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                         data.begin() + static_cast<std::ptrdiff_t>(off + bs));
            vol_.cache.put(file, (offset + off) / bs, std::move(block), /*dirty=*/false);
          }
        }
        cb(data);
      });
}

void Client::write_shipped(FileState& fs, std::uint64_t offset, Bytes data,
                           std::function<void(Status)> cb) {
  const FileId file = fs.file;
  const std::uint64_t end = offset + data.size();
  // Write-through: the cached copies of the touched blocks are stale now;
  // drop the whole file rather than patching partially covered pages.
  vol_.cache.invalidate_file(file);
  transport_.send_request(
      protocol::WriteDataReq{file, offset, std::move(data)},
      [this, file, end, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        const auto rep = expect<protocol::OkReply>(ev);
        if (!rep.ok()) {
          cb(rep.error());
          return;
        }
        FileState& fs2 = state_for(file);
        fs2.attr.size = std::max(fs2.attr.size, end);
        cb(Status::ok());
      });
}

// ---------------------------------------------------------------------------
// Flushing

void Client::flush_file(FileId file, std::function<void(Status)> cb) {
  auto fit = vol_.files.find(file);
  if (fit == vol_.files.end()) {
    cb(Status::ok());
    return;
  }
  FileState& fs = fit->second;
  auto dirty = vol_.cache.dirty_blocks(file);
  if (dirty.empty()) {
    cb(Status::ok());
    return;
  }

  auto fan = std::make_shared<FanIn>();
  fan->expected = dirty.size();
  fan->done = std::move(cb);  // same signature — no wrapping closure needed

  for (std::uint64_t fb : dirty) {
    const BlockCache::Page* page = vol_.cache.peek(file, fb);
    STANK_ASSERT(page != nullptr);
    write_block_through(fs, fb, page->data, [fan](Status st) { fan->complete(st); });
  }
}

void Client::write_block_through(FileState& fs, std::uint64_t fb, const Bytes& data,
                                 std::function<void(Status)> cb) {
  DiskId disk;
  storage::BlockAddr addr;
  if (!protocol::locate_block(fs.extents, fb, disk, addr)) {
    cb(Status{ErrorCode::kIoError});
    return;
  }
  storage::IoRequest io;
  io.initiator = cfg_.id;
  io.disk = disk;
  io.op = storage::IoOp::kWrite;
  io.addr = addr;
  io.count = 1;
  io.io_key = io_key();
  io.data = take_buf();  // snapshot of the page at flush time
  io.data.assign(data.begin(), data.end());

  const FileId file = fs.file;
  const std::uint32_t gen = gen_;
  Bytes snapshot = take_buf();  // second copy stays behind for the compare
  snapshot.assign(data.begin(), data.end());
  san_->submit(std::move(io),
               [this, gen, file, fb, snapshot = std::move(snapshot),
                cb = std::move(cb)](storage::IoResult res) mutable {
                 if (gen != gen_) return;
                 if (res.status.is_ok()) {
                   // Only mark clean if the page still holds exactly what we
                   // wrote; a concurrent process write must stay dirty.
                   const BlockCache::Page* page = vol_.cache.peek(file, fb);
                   if (page != nullptr && page->data == snapshot) {
                     vol_.cache.mark_clean(file, fb);
                   }
                 }
                 recycle_buf(std::move(snapshot));
                 cb(res.status);
               });
}

void Client::flush_all(std::function<void(Status)> cb) {
  auto dirty = vol_.cache.all_dirty();
  if (dirty.empty()) {
    cb(Status::ok());
    return;
  }
  auto fan = std::make_shared<FanIn>();
  fan->expected = dirty.size();
  fan->done = std::move(cb);
  for (const auto& [file, fb] : dirty) {
    auto fit = vol_.files.find(file);
    if (fit == vol_.files.end()) {
      fan->complete(Status{ErrorCode::kIoError});
      continue;
    }
    const BlockCache::Page* page = vol_.cache.peek(file, fb);
    if (page == nullptr || !page->dirty) {
      fan->complete(Status::ok());
      continue;
    }
    write_block_through(fit->second, fb, page->data, [fan](Status st) { fan->complete(st); });
  }
}

// ---------------------------------------------------------------------------
// NFS attribute polling

void Client::maybe_revalidate(FileState& fs, std::function<void(Status)> cb) {
  const sim::LocalTime now = clock_.now();
  if (fs.attr_known && now - fs.last_validate <= kAttrTimeout) {
    cb(Status::ok());
    return;
  }
  const FileId file = fs.file;
  const std::uint64_t old_mtime = fs.attr.mtime_ns;
  transport_.send_request(
      protocol::GetAttrReq{file},
      [this, file, old_mtime, cb = std::move(cb)](const protocol::ReplyEvent& ev) {
        const auto rep = expect<protocol::AttrReply>(ev);
        if (!rep.ok()) {
          cb(rep.error());
          return;
        }
        FileState& fs2 = state_for(file);
        if (fs2.attr_known && rep.value()->attr.mtime_ns != old_mtime) {
          // File changed on the server: NFS semantics discard the cache.
          vol_.cache.invalidate_file(file);
        }
        fs2.attr = rep.value()->attr;
        fs2.extents = rep.value()->extents;
        fs2.attr_known = true;
        fs2.last_validate = clock_.now();
        cb(Status::ok());
      });
}

// ---------------------------------------------------------------------------
// Byzantine behaviors (see client/byzantine.hpp and DESIGN.md §13)

std::uint32_t Client::byz_rand() {
  if (byz_rng_state_ == 0) {
    byz_rng_state_ = cfg_.id.value() * 2654435761u + 12345u;
    if (byz_rng_state_ == 0) byz_rng_state_ = 1;
  }
  byz_rng_state_ ^= byz_rng_state_ << 13;
  byz_rng_state_ ^= byz_rng_state_ >> 17;
  byz_rng_state_ ^= byz_rng_state_ << 5;
  return byz_rng_state_;
}

void Client::snapshot_rogue_writes() {
  // Resolve every dirty page to its (disk, addr) NOW, with the extents and
  // registration key of the dying session; the flusher never re-resolves or
  // re-keys — that staleness is the attack.
  vol_.rogue_io_key = io_key();
  vol_.rogue_writes.clear();
  for (const auto& [file, fb] : vol_.cache.all_dirty()) {
    auto fit = vol_.files.find(file);
    if (fit == vol_.files.end()) continue;
    DiskId disk;
    storage::BlockAddr addr;
    if (!protocol::locate_block(fit->second.extents, fb, disk, addr)) continue;
    const BlockCache::Page* page = vol_.cache.peek(file, fb);
    if (page == nullptr) continue;
    vol_.rogue_writes.push_back(RogueWrite{disk, addr, page->data});
  }
  if (vol_.rogue_writes.empty()) return;
  // Long enough (~4s of 50ms rounds) to straddle the server's fence+steal and
  // the next holder's first writes — the window the fence must actually close.
  vol_.rogue_rounds_left = 80;
  record_byzantine(obs::ByzAction::kRogueSnapshot, vol_.rogue_writes.size());
  if (vol_.rogue_timer == 0) {
    vol_.rogue_timer =
        clock_.schedule_after(sim::local_millis(50), [this]() { rogue_flush_tick(); });
  }
}

void Client::rogue_flush_tick() {
  vol_.rogue_timer = 0;
  if (crashed_ || vol_.rogue_rounds_left == 0 || vol_.rogue_writes.empty()) return;
  --vol_.rogue_rounds_left;
  for (const auto& rw : vol_.rogue_writes) {
    storage::IoRequest io;
    io.initiator = cfg_.id;
    io.disk = rw.disk;
    io.op = storage::IoOp::kWrite;
    io.addr = rw.addr;
    io.count = 1;
    io.io_key = vol_.rogue_io_key;  // deliberately stale: the dead session's key
    io.data = rw.data;
    san_->submit(std::move(io), [](storage::IoResult) {});
  }
  vol_.rogue_timer = clock_.schedule_after(sim::local_millis(50), [this]() { rogue_flush_tick(); });
}

void Client::replay_tick() {
  vol_.replay_timer = 0;
  if (crashed_) return;
  if (!vol_.captured.empty()) {
    // Prefer a datagram captured in a DEAD session (older epoch or server
    // incarnation); fall back to a same-session duplicate, which exercises
    // the dedup window instead.
    const std::uint32_t cur_epoch = transport_.epoch();
    const std::uint32_t cur_inc = transport_.incarnation();
    const CapturedDatagram* pick = nullptr;
    for (const auto& c : vol_.captured) {
      if (c.epoch != cur_epoch || c.incarnation != cur_inc) {
        pick = &c;
        break;
      }
    }
    if (pick == nullptr) {
      pick = &vol_.captured[byz_rand() % vol_.captured.size()];
    }
    transport_.inject_datagram(pick->bytes);
  }
  vol_.replay_timer = clock_.schedule_after(sim::local_millis(400), [this]() { replay_tick(); });
}

void Client::forge_tick() {
  vol_.forge_timer = 0;
  if (crashed_) return;
  if (vol_.registered) {
    // Claim release/compliance for a lock and generation this client was
    // never granted. Generations are small counters, so guessing one that is
    // current is easy — before grant cookies this released locks whose real
    // grant was still in flight to us. The forged cookie is a guess; the
    // server must reject the claim on that mismatch. Prefer files we know
    // exist.
    FileId file{1 + (byz_rand() % 4)};
    if (!vol_.files.empty()) {
      auto it = vol_.files.begin();
      std::advance(it, byz_rand() % vol_.files.size());
      file = it->first;
    }
    const std::uint32_t gen = 1 + (byz_rand() % 4);
    const std::uint64_t cookie =
        (static_cast<std::uint64_t>(byz_rand()) << 32) | byz_rand();
    if ((byz_rand() & 1u) != 0) {
      transport_.send_request(protocol::UnlockReq{file, LockMode::kNone, gen, cookie},
                              [](const protocol::ReplyEvent&) {});
    } else {
      transport_.send_request(protocol::DemandDoneReq{file, LockMode::kNone, gen, cookie},
                              [](const protocol::ReplyEvent&) {});
    }
  }
  vol_.forge_timer = clock_.schedule_after(sim::local_millis(600), [this]() { forge_tick(); });
}

void Client::record_byzantine(obs::ByzAction action, std::uint64_t detail) {
  if (rec_ != nullptr) {
    rec_->record(clock_.engine().now(), cfg_.id, obs::EventKind::kByzantine,
                 static_cast<std::uint64_t>(action), detail);
  }
}

}  // namespace stank::client
