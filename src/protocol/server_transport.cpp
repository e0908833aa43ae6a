#include "protocol/server_transport.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace stank::protocol {

ServerTransport::ServerTransport(net::ControlNet& net, sim::NodeClock& clock, NodeId self,
                                 metrics::Counters& counters, TransportConfig cfg)
    : net_(&net), clock_(&clock), self_(self), counters_(&counters), cfg_(cfg) {
  STANK_ASSERT_MSG(cfg_.reply_cache_size > 0,
                   "reply_cache_size must be >= 1: it is the at-most-once window, and a "
                   "server without one would re-execute every retransmitted request");
}

ServerTransport::~ServerTransport() {
  if (started_) {
    stop();
  }
}

void ServerTransport::start() {
  STANK_ASSERT(!started_);
  STANK_ASSERT_MSG(on_request != nullptr, "wire on_request before start()");
  started_ = true;
  net_->attach(self_, [this](NodeId from, const Bytes& dg) { handle_datagram(from, dg); });
}

void ServerTransport::stop() {
  if (!started_) return;
  started_ = false;
  net_->detach(self_);
  for (auto& [id, m] : out_msgs_) {
    clock_->cancel(m.timer);
  }
  out_msgs_.clear();
  // The reply cache is volatile too: a retransmit reaching the next start()
  // must be executed by the live server, not answered with a reply the
  // stopped one gave (a grant or an ACK it can no longer stand behind).
  sessions_.clear();
}

ServerTransport::Executed* ServerTransport::Session::find(MsgId id) {
  if (id.value() > max_id) return nullptr;
  // Newest first: a retransmit or a late respond() almost always targets one
  // of the last few requests. The newest entry sits just before ring_pos
  // (ring_pos is 0 until the ring fills, so that is then the back).
  const std::size_t n = ring.size();
  std::size_t i = ring_pos;
  for (std::size_t k = 0; k < n; ++k) {
    i = (i == 0 ? n : i) - 1;
    if (ring[i].id == id) return &ring[i];
  }
  return nullptr;
}

ServerTransport::Session& ServerTransport::session(NodeId client) { return sessions_[client]; }

void ServerTransport::handle_datagram(NodeId from, const Bytes& datagram) {
  auto frame = decode(datagram);
  if (!frame) {
    STANK_WARN("server " << self_ << ": undecodable datagram from " << from);
    return;
  }
  switch (frame->kind) {
    case FrameKind::kRequest:
      handle_request(*frame);
      return;
    case FrameKind::kClientAck: {
      auto it = out_msgs_.find(frame->msg_id);
      if (it == out_msgs_.end()) {
        return;  // duplicate ACK
      }
      OutMsg m = std::move(it->second);
      clock_->cancel(m.timer);
      out_msgs_.erase(it);
      if (rec_ != nullptr) {
        rec_->record(clock_->engine().now(), self_, obs::EventKind::kServerMsgAcked,
                     frame->msg_id.value(), m.client.value());
      }
      if (m.done) {
        m.done(true);
      }
      return;
    }
    case FrameKind::kAck:
    case FrameKind::kNack:
    case FrameKind::kServerMsg:
      STANK_WARN("server " << self_ << ": unexpected frame kind from " << from);
      return;
  }
}

void ServerTransport::handle_request(const Frame& f) {
  Session& s = session(f.sender);
  if (const Executed* seen = s.find(f.msg_id)) {
    if (seen->reply.has_value()) {
      // Retransmission of a completed request: re-send the cached reply,
      // unless the ACK gate has closed in the meantime — then the client
      // must see a NACK, not a lease-renewing ACK.
      Frame reply = *seen->reply;
      if (reply.kind == FrameKind::kAck && may_ack && !may_ack(f.sender)) {
        reply.kind = FrameKind::kNack;
        reply.body = std::monostate{};
      }
      ++counters_->reply_cache_hits;
      if (rec_ != nullptr) {
        rec_->record(clock_->engine().now(), self_, obs::EventKind::kReqReplay,
                     f.msg_id.value(), f.sender.value());
      }
      send_reply_frame(f.sender, reply);
    }
    // else: still executing; the eventual reply will go out once.
    return;
  }

  s.max_id = std::max(s.max_id, f.msg_id.value());
  if (s.ring.size() < cfg_.reply_cache_size) {
    s.ring.push_back(Executed{f.msg_id, std::nullopt});
  } else {
    // Recycle the oldest slot in place (FIFO by arrival): no allocation once
    // the session has seen reply_cache_size requests.
    Executed& oldest = s.ring[s.ring_pos];
    oldest.id = f.msg_id;
    oldest.reply.reset();
    s.ring_pos = (s.ring_pos + 1) % s.ring.size();
  }

  if (rec_ != nullptr) {
    rec_->record(clock_->engine().now(), self_, obs::EventKind::kReqRecv, f.msg_id.value(),
                 f.sender.value(),
                 static_cast<std::uint16_t>(std::get<RequestBody>(f.body).index()));
  }
  Responder r(this, f.sender, f.msg_id, f.epoch);
  on_request(f.sender, f.epoch, std::get<RequestBody>(f.body), r);
}

void ServerTransport::Responder::ack(ReplyBody body) const {
  t_->respond(client_, id_, epoch_, true, std::move(body));
}

void ServerTransport::Responder::nack() const {
  t_->respond(client_, id_, epoch_, false, ReplyBody{});
}

void ServerTransport::respond(NodeId client, MsgId id, std::uint32_t epoch, bool positive,
                              ReplyBody body) {
  Frame f;
  f.sender = self_;
  f.msg_id = id;
  f.epoch = epoch;
  f.incarnation = incarnation_;
  // The ACK gate is enforced HERE, unconditionally, so no server-logic bug
  // can leak a lease-renewing ACK to a client being timed out.
  if (positive && may_ack && !may_ack(client)) {
    positive = false;
  }
  if (positive) {
    f.kind = FrameKind::kAck;
    f.body = std::move(body);
  } else {
    f.kind = FrameKind::kNack;
  }

  if (Executed* e = session(client).find(id)) {
    STANK_ASSERT_MSG(!e->reply.has_value(), "double reply to one request");
    e->reply = f;
  }
  send_reply_frame(client, f);
}

void ServerTransport::send_reply_frame(NodeId client, const Frame& f) {
  if (f.kind == FrameKind::kAck) {
    ++counters_->acks_sent;
  } else {
    ++counters_->nacks_sent;
  }
  if (rec_ != nullptr) {
    rec_->record(clock_->engine().now(), self_,
                 f.kind == FrameKind::kAck ? obs::EventKind::kAckSend
                                           : obs::EventKind::kNackSend,
                 f.msg_id.value(), client.value());
  }
  send_frame(client, f);
}

void ServerTransport::send_frame(NodeId to, const Frame& f) {
  // Encode into a pooled buffer (exact-size reserve into recycled capacity),
  // then move the bytes into the net: zero allocations per datagram once the
  // pool is warm, zero copies.
  Bytes buf = net::ControlNet::take_buf();
  encode_into(f, buf);
  net_->send(self_, to, std::move(buf));
}

void ServerTransport::send_server_msg(NodeId client, std::uint32_t epoch, ServerBody body,
                                      std::function<void(bool)> done) {
  STANK_ASSERT_MSG(started_, "send_server_msg on stopped transport");
  const MsgId id{next_msg_++};
  OutMsg m;
  m.client = client;
  m.frame.kind = FrameKind::kServerMsg;
  m.frame.sender = self_;
  m.frame.msg_id = id;
  m.frame.epoch = epoch;
  m.frame.incarnation = incarnation_;
  m.frame.body = std::move(body);
  m.done = std::move(done);
  out_msgs_.emplace(id, std::move(m));
  transmit_server_msg(id);
}

void ServerTransport::transmit_server_msg(MsgId id) {
  auto it = out_msgs_.find(id);
  STANK_ASSERT(it != out_msgs_.end());
  OutMsg& m = it->second;

  ++counters_->server_msgs_sent;
  if (m.transmissions > 0) {
    ++counters_->retransmissions;
  }
  if (rec_ != nullptr) {
    if (m.transmissions == 0) {
      rec_->record(clock_->engine().now(), self_, obs::EventKind::kServerMsgSend, id.value(),
                   m.client.value(),
                   static_cast<std::uint16_t>(std::get<ServerBody>(m.frame.body).index()));
    } else {
      rec_->record(clock_->engine().now(), self_, obs::EventKind::kServerMsgRetransmit,
                   id.value(), m.client.value(),
                   static_cast<std::uint16_t>(m.transmissions));
    }
  }
  ++m.transmissions;
  send_frame(m.client, m.frame);

  m.timer = clock_->schedule_after(cfg_.retransmit_timeout, [this, id]() {
    auto it2 = out_msgs_.find(id);
    if (it2 == out_msgs_.end()) {
      return;  // ACKed meanwhile
    }
    if (it2->second.transmissions > cfg_.max_retries) {
      OutMsg m2 = std::move(it2->second);
      out_msgs_.erase(it2);
      if (rec_ != nullptr) {
        rec_->record(clock_->engine().now(), self_, obs::EventKind::kDeliveryFailure,
                     id.value(), m2.client.value());
      }
      if (m2.done) {
        m2.done(false);  // delivery failure
      }
      return;
    }
    transmit_server_msg(id);
  });
}

void ServerTransport::cancel_server_msgs(NodeId client) {
  for (auto it = out_msgs_.begin(); it != out_msgs_.end();) {
    if (it->second.client == client) {
      clock_->cancel(it->second.timer);
      it = out_msgs_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace stank::protocol
