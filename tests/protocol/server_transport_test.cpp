#include "protocol/server_transport.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "protocol/codec.hpp"

namespace stank::protocol {
namespace {

// A fake client at the datagram layer.
struct Fixture {
  sim::Engine engine;
  net::ControlNet net;
  sim::NodeClock server_clock;
  metrics::Counters counters;
  ServerTransport transport;
  std::vector<Frame> client_rx;
  bool client_auto_acks{true};
  int handler_calls{0};

  Fixture()
      : net(engine, sim::Rng(1), net::NetConfig{sim::micros(100), sim::Duration{0}, 0.0}),
        server_clock(engine, sim::LocalClock(1.0)),
        transport(net, server_clock, NodeId{1}, counters,
                  TransportConfig{sim::local_millis(100), 2, 8}) {
    net.attach(NodeId{100}, [this](NodeId from, const Bytes& dg) {
      auto f = decode(dg);
      ASSERT_TRUE(f.has_value());
      client_rx.push_back(*f);
      if (f->kind == FrameKind::kServerMsg && client_auto_acks) {
        Frame ack;
        ack.kind = FrameKind::kClientAck;
        ack.sender = NodeId{100};
        ack.msg_id = f->msg_id;
        ack.epoch = f->epoch;
        net.send(NodeId{100}, from, encode(ack));
      }
    });
    transport.on_request = [this](NodeId, std::uint32_t, const RequestBody& body,
                                  ServerTransport::Responder r) {
      ++handler_calls;
      if (std::holds_alternative<KeepAliveReq>(body)) {
        r.ack(ReplyBody{OkReply{}});
      } else {
        r.nack();
      }
    };
    transport.start();
  }

  void client_send(RequestBody body, std::uint64_t msg_id, std::uint32_t epoch = 1) {
    Frame f;
    f.kind = FrameKind::kRequest;
    f.sender = NodeId{100};
    f.msg_id = MsgId{msg_id};
    f.epoch = epoch;
    f.body = std::move(body);
    net.send(NodeId{100}, NodeId{1}, encode(f));
  }
};

TEST(ServerTransport, ExecutesAndAcks) {
  Fixture f;
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 1);
  ASSERT_EQ(f.client_rx.size(), 1u);
  EXPECT_EQ(f.client_rx[0].kind, FrameKind::kAck);
  EXPECT_EQ(f.client_rx[0].msg_id, MsgId{1});
  EXPECT_EQ(f.counters.acks_sent, 1u);
}

TEST(ServerTransport, AtMostOnceExecution) {
  Fixture f;
  f.client_send(KeepAliveReq{}, 1);
  f.client_send(KeepAliveReq{}, 1);  // duplicate
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 1);
  // Both copies get a reply (the second from the cache).
  EXPECT_EQ(f.client_rx.size(), 2u);
}

TEST(ServerTransport, OneReplyCachePerClientAcrossEpochs) {
  Fixture f;
  // Client msg ids are monotone for the client's whole life, so the epoch a
  // datagram names opens no session of its own: a request retransmitted
  // under 100 made-up epochs executes once and every copy is replayed from
  // the client's one reply cache.
  for (std::uint32_t epoch = 1; epoch <= 101; ++epoch) {
    f.client_send(KeepAliveReq{}, 1, epoch);
  }
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 1);
  EXPECT_EQ(f.counters.reply_cache_hits, 100u);
  EXPECT_EQ(f.client_rx.size(), 101u);
}

TEST(ServerTransport, NackReply) {
  Fixture f;
  f.client_send(GetAttrReq{FileId{1}}, 3);  // handler nacks non-keepalives
  f.engine.run();
  ASSERT_EQ(f.client_rx.size(), 1u);
  EXPECT_EQ(f.client_rx[0].kind, FrameKind::kNack);
  EXPECT_EQ(f.counters.nacks_sent, 1u);
}

TEST(ServerTransport, MayAckGateConvertsAckToNack) {
  Fixture f;
  f.transport.may_ack = [](NodeId) { return false; };
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  ASSERT_EQ(f.client_rx.size(), 1u);
  // Handler said ack; the gate said no.
  EXPECT_EQ(f.client_rx[0].kind, FrameKind::kNack);
}

TEST(ServerTransport, CachedAckReplayedAsNackOnceGateCloses) {
  Fixture f;
  bool gate_open = true;
  f.transport.may_ack = [&](NodeId) { return gate_open; };
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  ASSERT_EQ(f.client_rx.size(), 1u);
  EXPECT_EQ(f.client_rx[0].kind, FrameKind::kAck);

  gate_open = false;  // lease timer started
  f.client_send(KeepAliveReq{}, 1);  // retransmission of the SAME request
  f.engine.run();
  ASSERT_EQ(f.client_rx.size(), 2u);
  // The cached ACK must NOT leak: it would renew the timed-out lease.
  EXPECT_EQ(f.client_rx[1].kind, FrameKind::kNack);
  EXPECT_EQ(f.handler_calls, 1);
}

TEST(ServerTransport, ServerMsgDeliveredAndAcked) {
  Fixture f;
  std::optional<bool> delivered;
  f.transport.send_server_msg(NodeId{100}, 1, ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}},
                              [&](bool ok) { delivered = ok; });
  f.engine.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(*delivered);
  EXPECT_EQ(f.counters.server_msgs_sent, 1u);
}

TEST(ServerTransport, ServerMsgRetriesThenReportsDeliveryFailure) {
  Fixture f;
  f.client_auto_acks = false;
  std::optional<bool> delivered;
  f.transport.send_server_msg(NodeId{100}, 1, ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}},
                              [&](bool ok) { delivered = ok; });
  f.engine.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_FALSE(*delivered);  // the paper's "delivery error"
  EXPECT_EQ(f.client_rx.size(), 3u);  // 1 + 2 retries
  EXPECT_EQ(f.counters.retransmissions, 2u);
}

TEST(ServerTransport, DuplicateClientAckIgnored) {
  Fixture f;
  int completions = 0;
  f.transport.send_server_msg(NodeId{100}, 1, ServerBody{LockGrant{FileId{1}, LockMode::kShared, 1}},
                              [&](bool) { ++completions; });
  f.engine.run_until(sim::SimTime{} + sim::millis(1));
  ASSERT_GE(f.client_rx.size(), 1u);
  // Client re-ACKs manually.
  Frame ack;
  ack.kind = FrameKind::kClientAck;
  ack.sender = NodeId{100};
  ack.msg_id = f.client_rx[0].msg_id;
  ack.epoch = 1;
  f.net.send(NodeId{100}, NodeId{1}, encode(ack));
  f.engine.run();
  EXPECT_EQ(completions, 1);
}

TEST(ServerTransport, CancelServerMsgsSuppressesCallbacks) {
  Fixture f;
  f.client_auto_acks = false;
  bool fired = false;
  f.transport.send_server_msg(NodeId{100}, 1, ServerBody{LockDemand{FileId{1}, LockMode::kNone, 1}},
                              [&](bool) { fired = true; });
  f.transport.cancel_server_msgs(NodeId{100});
  EXPECT_EQ(f.transport.outstanding_server_msgs(), 0u);
  f.engine.run();
  EXPECT_FALSE(fired);
}

TEST(ServerTransport, InFlightRequestNotReExecutedOnRetransmit) {
  Fixture f;
  // A handler that never responds, to keep the request in-flight.
  f.transport.on_request = [&](NodeId, std::uint32_t, const RequestBody&,
                               ServerTransport::Responder) { ++f.handler_calls; };
  f.client_send(KeepAliveReq{}, 5);
  f.client_send(KeepAliveReq{}, 5);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 1);
  EXPECT_TRUE(f.client_rx.empty());
}

TEST(ServerTransport, ReplyCacheEvictsOldEntries) {
  Fixture f;  // cache size 8
  for (std::uint64_t i = 1; i <= 20; ++i) {
    f.client_send(KeepAliveReq{}, i);
  }
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 20);
  // A very old id re-executes after eviction (at-most-once window passed).
  f.client_send(KeepAliveReq{}, 1);
  f.engine.run();
  EXPECT_EQ(f.handler_calls, 21);
}

TEST(ServerTransportDeathTest, ZeroReplyCacheRejected) {
  // Capacity 0 leaves no at-most-once window at all: every retransmit would
  // re-execute. The constructor refuses it.
  sim::Engine engine;
  net::ControlNet net(engine, sim::Rng(1));
  sim::NodeClock clock(engine, sim::LocalClock(1.0));
  metrics::Counters counters;
  EXPECT_DEATH(ServerTransport(net, clock, NodeId{1}, counters,
                               TransportConfig{sim::local_millis(100), 2, 0}),
               "at-most-once window");
}

TEST(ServerTransportDeathTest, DoubleReplyAborts) {
  Fixture f;
  f.transport.on_request = [](NodeId, std::uint32_t, const RequestBody&,
                              ServerTransport::Responder r) {
    r.ack(ReplyBody{OkReply{}});
    r.ack(ReplyBody{OkReply{}});
  };
  f.client_send(KeepAliveReq{}, 1);
  EXPECT_DEATH(f.engine.run(), "double reply");
}

}  // namespace
}  // namespace stank::protocol
