// Randomized arrival sequences against the server's at-most-once window.
//
// ServerTransport keeps one contiguous FIFO ring of {msg id, cached reply}
// per session and skips the ring for ids above the highest admitted one. The
// reference model below is the design that ring replaced — a map from id to
// optional reply beside a FIFO of ids, evicting the oldest arrival — written
// with std::map and std::deque. Both are driven through the same arrivals:
// fresh ids, duplicates, reordered ids, ids long since evicted, handlers that
// reply at once, late or never, and an ACK gate that closes and reopens
// between execution and replay. Every step must produce the same handler
// calls and the same reply datagrams, byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "protocol/codec.hpp"
#include "protocol/server_transport.hpp"
#include "sim/rng.hpp"

namespace stank::protocol {
namespace {

constexpr NodeId kServer{1};
constexpr NodeId kClient{100};
constexpr std::uint32_t kEpoch = 1;

Frame reply_frame(std::uint64_t id, bool positive, const ReplyBody& body) {
  Frame f;
  f.kind = positive ? FrameKind::kAck : FrameKind::kNack;
  f.sender = kServer;
  f.msg_id = MsgId{id};
  f.epoch = kEpoch;
  if (positive) f.body = body;
  return f;
}

// The map + FIFO-ring reply cache, as a plain reference model.
class ReplyCacheModel {
 public:
  enum class Arrival { kExecute, kReplay, kSilent };

  explicit ReplyCacheModel(std::size_t cap) : cap_(cap) {}

  // What the server must do with request `id`. For kReplay, *replay is the
  // datagram it must re-send.
  Arrival on_request(std::uint64_t id, bool gate_open, Frame* replay) {
    auto it = executed_.find(id);
    if (it != executed_.end()) {
      if (!it->second.has_value()) return Arrival::kSilent;
      ++hits_;
      *replay = *it->second;
      if (replay->kind == FrameKind::kAck && !gate_open) {
        replay->kind = FrameKind::kNack;
        replay->body = std::monostate{};
      }
      return Arrival::kReplay;
    }
    executed_.emplace(id, std::nullopt);
    fifo_.push_back(id);
    if (fifo_.size() > cap_) {
      executed_.erase(fifo_.front());
      fifo_.pop_front();
    }
    return Arrival::kExecute;
  }

  // The reply datagram for a handler's answer; cached if `id` is still in
  // the window.
  Frame on_respond(std::uint64_t id, bool positive, const ReplyBody& body, bool gate_open) {
    Frame f = reply_frame(id, positive && gate_open, body);
    auto it = executed_.find(id);
    if (it != executed_.end()) {
      EXPECT_FALSE(it->second.has_value()) << "test drove a double reply to id " << id;
      it->second = f;
    }
    return f;
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  std::size_t cap_;
  std::deque<std::uint64_t> fifo_;
  std::map<std::uint64_t, std::optional<Frame>> executed_;
  std::uint64_t hits_{0};
};

enum class Action { kAckNow, kNackNow, kDefer, kDrop };

ReplyBody body_for(std::uint64_t id) {
  // Distinct per id, so a replay of the wrong entry cannot compare equal.
  return ReplyBody{LockReply{true, LockMode::kShared, static_cast<std::uint32_t>(id),
                             id * 0x9e3779b97f4a7c15ULL}};
}

class ReplyCacheProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(ReplyCacheProperty, RingMatchesMapAndFifoModel) {
  const auto [cap, seed] = GetParam();
  sim::Rng rng(seed);

  sim::Engine engine;
  net::ControlNet net(engine, sim::Rng(1),
                      net::NetConfig{sim::micros(100), sim::Duration{0}, 0.0});
  sim::NodeClock clock(engine, sim::LocalClock(1.0));
  metrics::Counters counters;
  ServerTransport transport(net, clock, kServer, counters,
                            TransportConfig{sim::local_millis(100), 2, cap});
  ReplyCacheModel model(cap);

  bool gate_open = true;
  transport.may_ack = [&](NodeId) { return gate_open; };

  std::vector<Bytes> rx;  // reply datagrams the client received this step
  net.attach(kClient, [&](NodeId, const Bytes& dg) { rx.push_back(dg); });

  // The handler does what the step decided. Requests carry their own id in
  // the body (the Responder does not expose it); deferred responders are
  // kept to answer in a later step.
  Action next_action = Action::kDrop;
  std::vector<std::uint64_t> calls;  // handler invocations this step
  std::map<std::uint64_t, ServerTransport::Responder> deferred;
  transport.on_request = [&](NodeId, std::uint32_t, const RequestBody& body,
                             ServerTransport::Responder r) {
    const std::uint64_t id = std::get<GetAttrReq>(body).file.value();
    calls.push_back(id);
    switch (next_action) {
      case Action::kAckNow: r.ack(body_for(id)); break;
      case Action::kNackNow: r.nack(); break;
      case Action::kDefer: deferred.emplace(id, r); break;
      case Action::kDrop: break;
    }
  };
  transport.start();

  auto check_step = [&](const std::vector<std::uint64_t>& want_calls,
                        const std::vector<Frame>& want_rx, int step) {
    engine.run();
    ASSERT_EQ(calls, want_calls) << "step " << step;
    ASSERT_EQ(rx.size(), want_rx.size()) << "step " << step;
    for (std::size_t i = 0; i < rx.size(); ++i) {
      ASSERT_EQ(rx[i], encode(want_rx[i])) << "step " << step << " reply " << i;
    }
    calls.clear();
    rx.clear();
  };

  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> sent;   // every id sent, in send order
  std::set<std::uint64_t> held;      // ids skipped now, to arrive reordered
  std::uint64_t executions = 0;
  std::uint64_t late_replies = 0;

  for (int step = 0; step < 4000; ++step) {
    const std::int64_t roll = rng.uniform_int(0, 99);
    if (roll < 6) {
      gate_open = !gate_open;
      continue;
    }
    if (roll < 18 && !deferred.empty()) {
      // A handler answers late — possibly after its entry was evicted.
      auto it = deferred.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(deferred.size()) - 1));
      const std::uint64_t id = it->first;
      const ServerTransport::Responder r = it->second;
      deferred.erase(it);
      const bool positive = rng.bernoulli(0.7);
      const Frame want = model.on_respond(id, positive, body_for(id), gate_open);
      if (positive) {
        r.ack(body_for(id));
      } else {
        r.nack();
      }
      ++late_replies;
      check_step({}, {want}, step);
      continue;
    }

    std::uint64_t id = 0;
    if (roll < 55 || sent.empty()) {
      // Fresh id; sometimes skip a few, which then arrive reordered.
      const std::int64_t skip = rng.bernoulli(0.15) ? rng.uniform_int(1, 3) : 0;
      for (std::int64_t k = 0; k < skip; ++k) held.insert(next_id++);
      id = next_id++;
    } else if (roll < 65 && !held.empty()) {
      auto it = held.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      id = *it;
      held.erase(it);
    } else if (roll < 88) {
      // Retransmit of a recent request: inside or just past the window.
      const auto n = static_cast<std::int64_t>(sent.size());
      const std::int64_t back =
          rng.uniform_int(1, std::min<std::int64_t>(n, static_cast<std::int64_t>(cap) + 3));
      id = sent[static_cast<std::size_t>(n - back)];
    } else {
      // Any id ever sent: with a small window, usually long evicted.
      id = sent[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sent.size()) - 1))];
    }
    sent.push_back(id);

    // A request still deferred from an earlier execution must not be
    // answered twice if it re-executes after eviction: that is the
    // caller's double-reply bug, which the transport aborts on.
    const std::int64_t pick = rng.uniform_int(0, 9);
    next_action = pick < 5   ? Action::kAckNow
                  : pick < 7 ? Action::kNackNow
                  : pick < 9 ? Action::kDefer
                             : Action::kDrop;
    if (deferred.contains(id)) next_action = Action::kDrop;

    Frame replay;
    std::vector<std::uint64_t> want_calls;
    std::vector<Frame> want_rx;
    switch (model.on_request(id, gate_open, &replay)) {
      case ReplyCacheModel::Arrival::kExecute:
        ++executions;
        want_calls.push_back(id);
        if (next_action == Action::kAckNow || next_action == Action::kNackNow) {
          want_rx.push_back(model.on_respond(id, next_action == Action::kAckNow, body_for(id),
                                             gate_open));
        }
        break;
      case ReplyCacheModel::Arrival::kReplay:
        want_rx.push_back(replay);
        break;
      case ReplyCacheModel::Arrival::kSilent:
        break;
    }

    Frame req;
    req.kind = FrameKind::kRequest;
    req.sender = kClient;
    req.msg_id = MsgId{id};
    req.epoch = kEpoch;
    req.body = RequestBody{GetAttrReq{FileId{static_cast<std::uint32_t>(id)}}};
    net.send(kClient, kServer, encode(req));
    check_step(want_calls, want_rx, step);
  }

  EXPECT_EQ(counters.reply_cache_hits, model.hits());
  // The run must actually exercise every path it claims to.
  EXPECT_GT(model.hits(), 0u);
  EXPECT_GT(late_replies, 0u);
  EXPECT_LT(executions, sent.size());
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndSeeds, ReplyCacheProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 8, 128),
                       ::testing::Values<std::uint64_t>(1, 2, 3)),
    [](const auto& param_info) {
      return "cap" + std::to_string(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace stank::protocol
