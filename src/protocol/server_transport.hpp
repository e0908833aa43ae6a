// Server side of the control-network session.
//
// Responsibilities:
//  * At-most-once request execution per (client, msg id), with a bounded
//    reply cache per client so retransmitted requests re-send the original
//    reply instead of re-executing. Client msg ids are monotone for the
//    client's whole life (across its epochs and reboots), so one window per
//    client covers every session it ever opens, and a request datagram
//    cannot create server state by naming a made-up epoch.
//  * The ACK gate: before ANY positive acknowledgment leaves this node, the
//    may_ack predicate is consulted. Section 3.1: "we require the server not
//    to ACK messages if it has already started a counter to expire client
//    locks". A denied ACK is turned into a NACK (section 3.3).
//  * Server-initiated messages (lock demands/grants) with retransmission;
//    exhausting retries reports a delivery failure, which is what triggers
//    the passive lease authority.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "metrics/counters.hpp"
#include "net/control_net.hpp"
#include "obs/recorder.hpp"
#include "protocol/codec.hpp"
#include "protocol/transport.hpp"
#include "sim/clock.hpp"

namespace stank::protocol {

class ServerTransport {
 public:
  ServerTransport(net::ControlNet& net, sim::NodeClock& clock, NodeId self,
                  metrics::Counters& counters, TransportConfig cfg = {});
  ~ServerTransport();

  ServerTransport(const ServerTransport&) = delete;
  ServerTransport& operator=(const ServerTransport&) = delete;

  void start();
  // Detaches from the network and drops every outstanding server message
  // and the whole reply cache.
  void stop();

  // Handle with which the request handler answers exactly once.
  class Responder {
   public:
    void ack(ReplyBody body) const;
    void nack() const;
    [[nodiscard]] NodeId client() const { return client_; }
    [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

   private:
    friend class ServerTransport;
    Responder(ServerTransport* t, NodeId client, MsgId id, std::uint32_t epoch)
        : t_(t), client_(client), id_(id), epoch_(epoch) {}
    ServerTransport* t_;
    NodeId client_;
    MsgId id_;
    std::uint32_t epoch_;
  };

  // Wired by the server before start().
  std::function<void(NodeId client, std::uint32_t epoch, const RequestBody&, Responder)>
      on_request;
  // ACK suppression gate; default permits.
  std::function<bool(NodeId client)> may_ack;

  // Sends a server-initiated message requiring a client transport ACK.
  // done(delivered) fires exactly once; delivered=false after retries are
  // exhausted — the delivery error of section 3.
  void send_server_msg(NodeId client, std::uint32_t epoch, ServerBody body,
                       std::function<void(bool delivered)> done);

  // Drops outstanding server messages to a client without firing their
  // callbacks (used once the client has been declared failed).
  void cancel_server_msgs(NodeId client);

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] std::size_t outstanding_server_msgs() const { return out_msgs_.size(); }

  // Stamps every outgoing frame with this server incarnation. Clients gate
  // server-initiated messages on it: epoch numbers and server msg_ids both
  // restart across reboots, so the incarnation is the only field that makes
  // a captured pre-restart datagram distinguishable from a live one.
  void set_incarnation(std::uint32_t inc) { incarnation_ = inc; }
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }

  // Attaches (or detaches, with nullptr) the flight recorder.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }

 private:
  // One admitted request of a client: its id and the reply it was given
  // (nullopt while the handler is still running).
  struct Executed {
    MsgId id;
    std::optional<Frame> reply;
  };
  // The at-most-once window: one contiguous FIFO ring of the last
  // reply_cache_size admitted requests. Once full the ring stops growing and
  // every further request recycles the oldest slot, so the steady-state
  // server path makes zero allocations per request. No index is needed:
  // fresh ids skip the ring (max_id), and respond() and retransmits find
  // their entry within the last few slots of a newest-first scan.
  struct Session {
    std::vector<Executed> ring;
    std::size_t ring_pos{0};  // oldest entry once the ring is full
    // Highest id ever admitted. Client ids are monotone, so a request above
    // it is fresh and skips the scan; only retransmits and reordered
    // datagrams pay for one.
    std::uint64_t max_id{0};

    // The entry for `id`, or nullptr if it never arrived or was evicted.
    [[nodiscard]] Executed* find(MsgId id);
  };
  struct OutMsg {
    NodeId client;
    Frame frame;
    int transmissions{0};
    sim::TimerId timer{0};
    std::function<void(bool)> done;
  };

  void handle_datagram(NodeId from, const Bytes& datagram);
  void handle_request(const Frame& f);
  void respond(NodeId client, MsgId id, std::uint32_t epoch, bool positive, ReplyBody body);
  void send_reply_frame(NodeId client, const Frame& f);
  void send_frame(NodeId to, const Frame& f);
  void transmit_server_msg(MsgId id);
  Session& session(NodeId client);

  net::ControlNet* net_;
  sim::NodeClock* clock_;
  NodeId self_;
  metrics::Counters* counters_;
  obs::Recorder* rec_{nullptr};
  TransportConfig cfg_;
  bool started_{false};
  std::uint32_t incarnation_{0};
  std::uint64_t next_msg_{1};

  // One reply-cache session per client, in one flat table: a million-client
  // server pays one probe per request and ~56 bytes of per-session overhead.
  FlatMap<NodeId, Session> sessions_;
  std::unordered_map<MsgId, OutMsg> out_msgs_;
};

}  // namespace stank::protocol
