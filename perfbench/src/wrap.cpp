// Span wrappers for the traced binary.
//
// The traced binary is linked with -Wl,--wrap=<symbol> for every symbol in
// wrapped_symbols.txt: each call to one of these library entry points that
// crosses translation units reaches __wrap_<symbol> below, which opens a
// ledger span for the callee's layer and calls __real_<symbol>. Nothing in
// the library changes, and no wrapper changes what the call does: the
// arguments are passed on unchanged, except that callbacks handed to a
// layer are wrapped so that, when the layer calls back, the time is charged
// to the layer that handed the callback over.
//
// Engine events are treated the same way: Engine::schedule_at wraps each
// event so that it runs in a span of the layer that scheduled it (a
// delivery timer armed inside ControlNet::send runs as net, a lease timer
// armed by the lease agent as core). Time inside Engine::run_until that no
// event covers is the simulator's own (heap, dispatch).
//
// Layer of each wrapped entry point:
//   sim       Engine::run_until
//   net       ControlNet::send / inject
//   protocol  encode_into, decode, client/server transports; the per-datagram
//             receive handler a transport attaches to the ControlNet
//   core      ClientLeaseAgent, ServerLeaseAuthority
//   server    the server's request handler, LockManager
//   client    Client's public calls, the client's transport hooks
//   storage   SanFabric::submit / submit_admin
//   verify    HistoryRecorder::on_*, ConsistencyChecker::check_all*
//   workload  Scenario::run_generators / finish, and the benchmark's own op
//             loop (trace::WorkloadSpan)
//
// Only calls made during the measured phase matter: the ledger is cleared
// when the phase starts.
#include <chrono>
#include <functional>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "core/client_lease_agent.hpp"
#include "core/server_lease_authority.hpp"
#include "net/control_net.hpp"
#include "protocol/client_transport.hpp"
#include "protocol/codec.hpp"
#include "protocol/server_transport.hpp"
#include "server/lock_manager.hpp"
#include "sim/engine.hpp"
#include "storage/san.hpp"
#include "trace_hooks.hpp"
#include "verify/checker.hpp"
#include "verify/history.hpp"
#include "workload/scenario.hpp"

using namespace stank;
using perfbench::Layer;
using perfbench::Probe;
using perfbench::ProbeSpan;
using perfbench::Span;

// ---------------------------------------------------------------------------
// Tracing hooks of the traced binary.

namespace perfbench::trace {

namespace {
std::uint64_t g_ticks0 = 0;
std::chrono::steady_clock::time_point g_clock0;
}  // namespace

bool enabled() { return true; }

void begin_phase() {
  (void)ledger_take();
  g_clock0 = std::chrono::steady_clock::now();
  g_ticks0 = ticks();
}

PhaseLedger end_phase() {
  const std::uint64_t t1 = ticks();
  const double ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - g_clock0)
          .count();
  const LedgerTotals tot = ledger_take();
  const double ns_per_tick = t1 > g_ticks0 ? ns / static_cast<double>(t1 - g_ticks0) : 0.0;
  PhaseLedger out;
  for (std::size_t i = 0; i < kLayers; ++i) {
    out.self_ns[i] = static_cast<double>(tot.self_ticks[i]) * ns_per_tick;
  }
  for (std::size_t i = 0; i < kProbes; ++i) {
    out.probe_ns[i] = static_cast<double>(tot.probe_ticks[i]) * ns_per_tick;
    out.probe_calls[i] = tot.probe_calls[i];
  }
  out.root_ns = static_cast<double>(tot.root_ticks) * ns_per_tick;
  return out;
}

WorkloadSpan::WorkloadSpan() { thread_stack().enter(Layer::kWorkload, ticks()); }
WorkloadSpan::~WorkloadSpan() { thread_stack().exit(ticks()); }

}  // namespace perfbench::trace

namespace {

// Layer of the code making the current call; callbacks it hands to another
// layer run back in this layer.
Layer caller() { return perfbench::thread_stack().current_or(Layer::kWorkload); }

template <typename Sig>
struct LabeledFn;
template <typename R, typename... A>
struct LabeledFn<R(A...)> {
  std::function<R(A...)> inner;
  Layer layer;
  R operator()(A... a) const {
    Span s(layer);
    return inner(std::forward<A>(a)...);
  }
};

template <typename Sig>
std::function<Sig> labeled(std::function<Sig> f, Layer l) {
  if (!f) return f;
  return LabeledFn<Sig>{std::move(f), l};
}

// Wraps a public hook once, however often the owner restarts.
template <typename Sig>
void relabel(std::function<Sig>& f, Layer l) {
  if (!f || f.target_type() == typeid(LabeledFn<Sig>)) return;
  f = LabeledFn<Sig>{std::move(f), l};
}

struct LabeledEvent {
  sim::EventFn fn;
  Layer layer;
  void operator()() {
    Span s(layer);
    fn();
  }
};

struct LabeledReply {
  protocol::ReplyHandler fn;
  Layer layer;
  void operator()(const protocol::ReplyEvent& e) {
    Span s(layer);
    fn(e);
  }
};

}  // namespace

// Declares __real_<sym> as REAL and defines __wrap_<sym> as WRAP, with the
// member function's `this` as the first parameter (the Itanium C++ ABI
// passes it exactly like that).
#define STANK_WRAP(sym, R, REAL, WRAP, ...)       \
  R REAL(__VA_ARGS__) asm("__real_" sym);         \
  R WRAP(__VA_ARGS__) asm("__wrap_" sym);         \
  R WRAP(__VA_ARGS__)

// ---- sim ------------------------------------------------------------------

#define SYM "_ZN5stank3sim6Engine9run_untilENS0_11time_detail10TimePointTINS2_9GlobalTagEEE"
STANK_WRAP(SYM, void, real_run_until, wrap_run_until, sim::Engine* self, sim::SimTime t) {
  Span s(Layer::kSim);
  real_run_until(self, t);
}
#undef SYM

#define SYM "_ZN5stank3sim6Engine11schedule_atENS0_11time_detail10TimePointTINS2_9GlobalTagEEENS0_7EventFnE"
STANK_WRAP(SYM, sim::TimerId, real_schedule_at, wrap_schedule_at, sim::Engine* self,
           sim::SimTime t, sim::EventFn fn) {
  if (!fn) return real_schedule_at(self, t, std::move(fn));
  return real_schedule_at(self, t, sim::EventFn(LabeledEvent{std::move(fn), caller()}));
}
#undef SYM

// ---- net ------------------------------------------------------------------

#define SYM "_ZN5stank3net10ControlNet4sendENS_8StrongIdINS_7NodeTagEjEES4_St6vectorIhSaIhEE"
STANK_WRAP(SYM, void, real_send, wrap_send, net::ControlNet* self, NodeId from, NodeId to,
           Bytes d) {
  Span s(Layer::kNet);
  real_send(self, from, to, std::move(d));
}
#undef SYM

#define SYM "_ZN5stank3net10ControlNet6injectENS_8StrongIdINS_7NodeTagEjEES4_NS_3sim11time_detail10TimePointTINS6_9GlobalTagEEESt6vectorIhSaIhEE"
STANK_WRAP(SYM, void, real_inject, wrap_inject, net::ControlNet* self, NodeId from, NodeId to,
           sim::SimTime at, Bytes d) {
  Span s(Layer::kNet);
  real_inject(self, from, to, at, std::move(d));
}
#undef SYM

#define SYM "_ZN5stank3net10ControlNet6attachENS_8StrongIdINS_7NodeTagEjEESt8functionIFvS4_RSt6vectorIhSaIhEEEE"
STANK_WRAP(SYM, void, real_attach, wrap_attach, net::ControlNet* self, NodeId node,
           net::ControlNet::Handler h) {
  // The attached handler is the transport's datagram receive path.
  real_attach(self, node, labeled(std::move(h), Layer::kProtocol));
}
#undef SYM

// ---- protocol -------------------------------------------------------------

#define SYM "_ZN5stank8protocol11encode_intoERKNS0_5FrameERSt6vectorIhSaIhEE"
STANK_WRAP(SYM, void, real_encode_into, wrap_encode_into, const protocol::Frame& f, Bytes& out) {
  ProbeSpan s(Layer::kProtocol, Probe::kEncode);
  real_encode_into(f, out);
}
#undef SYM

#define SYM "_ZN5stank8protocol6decodeERKSt6vectorIhSaIhEE"
STANK_WRAP(SYM, std::optional<protocol::Frame>, real_decode, wrap_decode, const Bytes& d) {
  ProbeSpan s(Layer::kProtocol, Probe::kDecode);
  return real_decode(d);
}
#undef SYM

#define SYM "_ZN5stank8protocol15ClientTransport12send_requestESt7variantIJNS0_7OpenReqENS0_8CloseReqENS0_7LockReqENS0_9UnlockReqENS0_13DemandDoneReqENS0_10GetAttrReqENS0_10SetSizeReqENS0_12KeepAliveReqENS0_11RegisterReqENS0_11RenewObjReqENS0_11ReadDataReqENS0_12WriteDataReqENS0_15ReassertLockReqEEENS_6MoveFnIFvRKNS0_10ReplyEventEELm64EEEb"
STANK_WRAP(SYM, MsgId, real_send_request, wrap_send_request, protocol::ClientTransport* self,
           protocol::RequestBody body, protocol::ReplyHandler h, bool lease_only) {
  const Layer back = caller();
  Span s(Layer::kProtocol);
  if (!h) return real_send_request(self, std::move(body), std::move(h), lease_only);
  return real_send_request(self, std::move(body),
                           protocol::ReplyHandler(LabeledReply{std::move(h), back}), lease_only);
}
#undef SYM

#define SYM "_ZN5stank8protocol15ClientTransport5startEv"
STANK_WRAP(SYM, void, real_ct_start, wrap_ct_start, protocol::ClientTransport* self) {
  relabel(self->on_ack, Layer::kClient);
  relabel(self->on_nack, Layer::kClient);
  relabel(self->on_stale_session, Layer::kClient);
  relabel(self->on_server_msg, Layer::kClient);
  Span s(Layer::kProtocol);
  real_ct_start(self);
}
#undef SYM

#define SYM "_ZN5stank8protocol15ServerTransport5startEv"
STANK_WRAP(SYM, void, real_st_start, wrap_st_start, protocol::ServerTransport* self) {
  relabel(self->on_request, Layer::kServer);
  Span s(Layer::kProtocol);
  real_st_start(self);
}
#undef SYM

#define SYM "_ZNK5stank8protocol15ServerTransport9Responder3ackESt7variantIJNS0_7OkReplyENS0_8ErrReplyENS0_9OpenReplyENS0_9LockReplyENS0_9AttrReplyENS0_13RegisterReplyENS0_9DataReplyEEE"
STANK_WRAP(SYM, void, real_ack, wrap_ack, const protocol::ServerTransport::Responder* self,
           protocol::ReplyBody body) {
  Span s(Layer::kProtocol);
  real_ack(self, std::move(body));
}
#undef SYM

#define SYM "_ZNK5stank8protocol15ServerTransport9Responder4nackEv"
STANK_WRAP(SYM, void, real_nack, wrap_nack, const protocol::ServerTransport::Responder* self) {
  Span s(Layer::kProtocol);
  real_nack(self);
}
#undef SYM

#define SYM "_ZN5stank8protocol15ServerTransport15send_server_msgENS_8StrongIdINS_7NodeTagEjEEjSt7variantIJNS0_10LockDemandENS0_9LockGrantEEESt8functionIFvbEE"
STANK_WRAP(SYM, void, real_send_server_msg, wrap_send_server_msg,
           protocol::ServerTransport* self, NodeId client, std::uint32_t epoch,
           protocol::ServerBody body, std::function<void(bool)> done) {
  const Layer back = caller();
  Span s(Layer::kProtocol);
  real_send_server_msg(self, client, epoch, std::move(body), labeled(std::move(done), back));
}
#undef SYM

// ---- core -----------------------------------------------------------------

#define SYM "_ZN5stank4core16ClientLeaseAgent5renewENS_3sim11time_detail10TimePointTINS3_8LocalTagEEE"
STANK_WRAP(SYM, void, real_renew, wrap_renew, core::ClientLeaseAgent* self, sim::LocalTime t) {
  Span s(Layer::kCore);
  real_renew(self, t);
}
#undef SYM

#define SYM "_ZN5stank4core16ClientLeaseAgent7on_nackEv"
STANK_WRAP(SYM, void, real_agent_nack, wrap_agent_nack, core::ClientLeaseAgent* self) {
  Span s(Layer::kCore);
  real_agent_nack(self);
}
#undef SYM

#define SYM "_ZN5stank4core16ClientLeaseAgent7restartENS_3sim11time_detail10TimePointTINS3_8LocalTagEEE"
STANK_WRAP(SYM, void, real_agent_restart, wrap_agent_restart, core::ClientLeaseAgent* self,
           sim::LocalTime t) {
  Span s(Layer::kCore);
  real_agent_restart(self, t);
}
#undef SYM

#define SYM "_ZN5stank4core16ClientLeaseAgent10deactivateEv"
STANK_WRAP(SYM, void, real_deactivate, wrap_deactivate, core::ClientLeaseAgent* self) {
  Span s(Layer::kCore);
  real_deactivate(self);
}
#undef SYM

#define SYM "_ZN5stank4core20ServerLeaseAuthority19on_delivery_failureENS_8StrongIdINS_7NodeTagEjEE"
STANK_WRAP(SYM, void, real_delivery_failure, wrap_delivery_failure,
           core::ServerLeaseAuthority* self, NodeId client) {
  Span s(Layer::kCore);
  real_delivery_failure(self, client);
}
#undef SYM

#define SYM "_ZN5stank4core20ServerLeaseAuthority14try_reregisterENS_8StrongIdINS_7NodeTagEjEE"
STANK_WRAP(SYM, bool, real_try_reregister, wrap_try_reregister,
           core::ServerLeaseAuthority* self, NodeId client) {
  Span s(Layer::kCore);
  return real_try_reregister(self, client);
}
#undef SYM

#define SYM "_ZNK5stank4core20ServerLeaseAuthority7may_ackENS_8StrongIdINS_7NodeTagEjEE"
STANK_WRAP(SYM, bool, real_may_ack, wrap_may_ack, const core::ServerLeaseAuthority* self,
           NodeId client) {
  Span s(Layer::kCore);
  return real_may_ack(self, client);
}
#undef SYM

// ---- server ---------------------------------------------------------------

using LM = server::LockManager;

#define SYM "_ZN5stank6server11LockManager7acquireENS_8StrongIdINS_7NodeTagEjEENS2_INS_7FileTagEjEENS_8protocol8LockModeERSt6vectorINS1_6DemandESaISA_EE"
STANK_WRAP(SYM, LM::AcquireOutcome, real_acquire, wrap_acquire, LM* self, NodeId c, FileId f,
           protocol::LockMode m, std::vector<LM::Demand>& out) {
  ProbeSpan s(Layer::kServer, Probe::kLock);
  return real_acquire(self, c, f, m, out);
}
#undef SYM

#define SYM "_ZN5stank6server11LockManager8set_modeENS_8StrongIdINS_7NodeTagEjEENS2_INS_7FileTagEjEENS_8protocol8LockModeERNS1_6UpdateE"
STANK_WRAP(SYM, void, real_set_mode, wrap_set_mode, LM* self, NodeId c, FileId f,
           protocol::LockMode m, LM::Update& out) {
  ProbeSpan s(Layer::kServer, Probe::kLock);
  real_set_mode(self, c, f, m, out);
}
#undef SYM

#define SYM "_ZN5stank6server11LockManager13cancel_waiterENS_8StrongIdINS_7NodeTagEjEENS2_INS_7FileTagEjEERNS1_6UpdateE"
STANK_WRAP(SYM, void, real_cancel_waiter, wrap_cancel_waiter, LM* self, NodeId c, FileId f,
           LM::Update& out) {
  ProbeSpan s(Layer::kServer, Probe::kLock);
  real_cancel_waiter(self, c, f, out);
}
#undef SYM

#define SYM "_ZN5stank6server11LockManager9steal_allENS_8StrongIdINS_7NodeTagEjEERSt6vectorINS2_INS_7FileTagEjEESaIS7_EERNS1_6UpdateE"
STANK_WRAP(SYM, void, real_steal_all, wrap_steal_all, LM* self, NodeId c,
           std::vector<FileId>& affected, LM::Update& out) {
  ProbeSpan s(Layer::kServer, Probe::kLock);
  real_steal_all(self, c, affected, out);
}
#undef SYM

// ---- client ---------------------------------------------------------------

using Cl = client::Client;

#define SYM "_ZN5stank6client6Client4openERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEbSt8functionIFvNS_6ResultIjEEEE"
STANK_WRAP(SYM, void, real_open, wrap_open, Cl* self, const std::string& path, bool create,
           std::function<void(Result<client::Fd>)> cb) {
  const Layer back = caller();
  Span s(Layer::kClient);
  real_open(self, path, create, labeled(std::move(cb), back));
}
#undef SYM

#define SYM "_ZN5stank6client6Client4readEjmjSt8functionIFvNS_6ResultISt6vectorIhSaIhEEEEEE"
STANK_WRAP(SYM, void, real_read, wrap_read, Cl* self, client::Fd fd, std::uint64_t off,
           std::uint32_t len, std::function<void(Result<Bytes>)> cb) {
  const Layer back = caller();
  Span s(Layer::kClient);
  real_read(self, fd, off, len, labeled(std::move(cb), back));
}
#undef SYM

#define SYM "_ZN5stank6client6Client5writeEjmSt6vectorIhSaIhEESt8functionIFvNS_6StatusEEE"
STANK_WRAP(SYM, void, real_write, wrap_write, Cl* self, client::Fd fd, std::uint64_t off,
           Bytes data, std::function<void(Status)> cb) {
  const Layer back = caller();
  Span s(Layer::kClient);
  real_write(self, fd, off, std::move(data), labeled(std::move(cb), back));
}
#undef SYM

#define SYM "_ZN5stank6client6Client4lockEjNS_8protocol8LockModeESt8functionIFvNS_6StatusEEE"
STANK_WRAP(SYM, void, real_lock, wrap_lock, Cl* self, client::Fd fd, protocol::LockMode m,
           std::function<void(Status)> cb) {
  const Layer back = caller();
  Span s(Layer::kClient);
  real_lock(self, fd, m, labeled(std::move(cb), back));
}
#undef SYM

#define SYM "_ZN5stank6client6Client7releaseEjNS_8protocol8LockModeESt8functionIFvNS_6StatusEEE"
STANK_WRAP(SYM, void, real_release, wrap_release, Cl* self, client::Fd fd, protocol::LockMode m,
           std::function<void(Status)> cb) {
  const Layer back = caller();
  Span s(Layer::kClient);
  real_release(self, fd, m, labeled(std::move(cb), back));
}
#undef SYM

#define SYM "_ZN5stank6client6Client8sync_allESt8functionIFvNS_6StatusEEE"
STANK_WRAP(SYM, void, real_sync_all, wrap_sync_all, Cl* self, std::function<void(Status)> cb) {
  const Layer back = caller();
  Span s(Layer::kClient);
  real_sync_all(self, labeled(std::move(cb), back));
}
#undef SYM

#define SYM "_ZN5stank6client6Client5crashEv"
STANK_WRAP(SYM, void, real_crash, wrap_crash, Cl* self) {
  Span s(Layer::kClient);
  real_crash(self);
}
#undef SYM

#define SYM "_ZN5stank6client6Client7restartEv"
STANK_WRAP(SYM, void, real_client_restart, wrap_client_restart, Cl* self) {
  Span s(Layer::kClient);
  real_client_restart(self);
}
#undef SYM

// ---- storage --------------------------------------------------------------

#define SYM "_ZN5stank7storage9SanFabric6submitENS0_9IoRequestESt8functionIFvNS0_8IoResultEEE"
STANK_WRAP(SYM, void, real_submit, wrap_submit, storage::SanFabric* self, storage::IoRequest rq,
           storage::IoCallback cb) {
  const Layer back = caller();
  Span s(Layer::kStorage);
  real_submit(self, std::move(rq), labeled(std::move(cb), back));
}
#undef SYM

#define SYM "_ZN5stank7storage9SanFabric12submit_adminENS0_12AdminRequestESt8functionIFvNS_6StatusEEE"
STANK_WRAP(SYM, void, real_submit_admin, wrap_submit_admin, storage::SanFabric* self,
           storage::AdminRequest rq, storage::AdminCallback cb) {
  const Layer back = caller();
  Span s(Layer::kStorage);
  real_submit_admin(self, std::move(rq), labeled(std::move(cb), back));
}
#undef SYM

// ---- verify ---------------------------------------------------------------

using HR = verify::HistoryRecorder;

#define SYM "_ZN5stank6verify15HistoryRecorder10on_disk_ioERKNS_7storage9IoRequestERKNS2_8IoResultENS_3sim11time_detail10TimePointTINSA_9GlobalTagEEEj"
STANK_WRAP(SYM, void, real_on_disk_io, wrap_on_disk_io, HR* self, const storage::IoRequest& rq,
           const storage::IoResult& rs, sim::SimTime at, std::uint32_t block_size) {
  Span s(Layer::kVerify);
  real_on_disk_io(self, rq, rs, at, block_size);
}
#undef SYM

#define SYM "_ZN5stank6verify15HistoryRecorder17on_buffered_writeENS_3sim11time_detail10TimePointTINS3_9GlobalTagEEENS_8StrongIdINS_7NodeTagEjEERKNS0_5StampE"
STANK_WRAP(SYM, void, real_on_buffered_write, wrap_on_buffered_write, HR* self, sim::SimTime at,
           NodeId client, const verify::Stamp& stamp) {
  Span s(Layer::kVerify);
  real_on_buffered_write(self, at, client, stamp);
}
#undef SYM

#define SYM "_ZN5stank6verify15HistoryRecorder7on_readERKNS0_7ReadRecE"
STANK_WRAP(SYM, void, real_on_read, wrap_on_read, HR* self, const verify::ReadRec& r) {
  Span s(Layer::kVerify);
  real_on_read(self, r);
}
#undef SYM

#define SYM "_ZN5stank6verify15HistoryRecorder8on_crashENS_8StrongIdINS_7NodeTagEjEE"
STANK_WRAP(SYM, void, real_on_crash, wrap_on_crash, HR* self, NodeId client) {
  Span s(Layer::kVerify);
  real_on_crash(self, client);
}
#undef SYM

#define SYM "_ZNK5stank6verify18ConsistencyChecker9check_allEv"
STANK_WRAP(SYM, std::vector<verify::Violation>, real_check_all, wrap_check_all,
           const verify::ConsistencyChecker* self) {
  ProbeSpan s(Layer::kVerify, Probe::kCheck);
  return real_check_all(self);
}
#undef SYM

#define SYM "_ZNK5stank6verify18ConsistencyChecker15check_all_splitEv"
STANK_WRAP(SYM, verify::SplitVerdict, real_check_all_split, wrap_check_all_split,
           const verify::ConsistencyChecker* self) {
  ProbeSpan s(Layer::kVerify, Probe::kCheck);
  return real_check_all_split(self);
}
#undef SYM

// ---- workload -------------------------------------------------------------

using Sc = workload::Scenario;

#define SYM "_ZN5stank8workload8Scenario14run_generatorsEv"
STANK_WRAP(SYM, void, real_run_generators, wrap_run_generators, Sc* self) {
  Span s(Layer::kWorkload);
  real_run_generators(self);
}
#undef SYM

#define SYM "_ZN5stank8workload8Scenario6finishEv"
STANK_WRAP(SYM, workload::ScenarioResult, real_finish, wrap_finish, Sc* self) {
  Span s(Layer::kWorkload);
  return real_finish(self);
}
#undef SYM
