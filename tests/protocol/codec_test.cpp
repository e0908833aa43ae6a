#include "protocol/codec.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace stank::protocol {
namespace {

Frame mk_request(RequestBody body) {
  Frame f;
  f.kind = FrameKind::kRequest;
  f.sender = NodeId{100};
  f.msg_id = MsgId{42};
  f.epoch = 3;
  f.body = std::move(body);
  return f;
}

Frame mk_reply(ReplyBody body, FrameKind kind = FrameKind::kAck) {
  Frame f;
  f.kind = kind;
  f.sender = NodeId{1};
  f.msg_id = MsgId{42};
  f.epoch = 3;
  if (kind == FrameKind::kAck) {
    f.body = std::move(body);
  }
  return f;
}

void expect_header_round_trip(const Frame& f, const Frame& d) {
  EXPECT_EQ(d.kind, f.kind);
  EXPECT_EQ(d.sender, f.sender);
  EXPECT_EQ(d.msg_id, f.msg_id);
  EXPECT_EQ(d.epoch, f.epoch);
}

template <typename T>
const T& decoded_request(const Frame& d) {
  return std::get<T>(std::get<RequestBody>(d.body));
}
template <typename T>
const T& decoded_reply(const Frame& d) {
  return std::get<T>(std::get<ReplyBody>(d.body));
}

TEST(Codec, OpenReqRoundTrip) {
  Frame f = mk_request(OpenReq{"/some/long/path with spaces", true});
  auto d = decode(encode(f));
  ASSERT_TRUE(d.has_value());
  expect_header_round_trip(f, *d);
  EXPECT_EQ(decoded_request<OpenReq>(*d).path, "/some/long/path with spaces");
  EXPECT_TRUE(decoded_request<OpenReq>(*d).create);
}

TEST(Codec, EncodedSizeMatchesActualEncodingExactly) {
  // The size pass must agree byte-for-byte with the write pass for every
  // body shape, and the buffer must be allocated exactly once at that size.
  const Frame frames[] = {
      mk_request(OpenReq{"/a/path", false}),
      mk_request(LockReq{FileId{9}, LockMode::kExclusive}),
      mk_request(UnlockReq{FileId{9}, LockMode::kShared, 7}),
      mk_request(KeepAliveReq{}),
      mk_request(WriteDataReq{FileId{3}, 128, Bytes{1, 2, 3, 4, 5}}),
      mk_reply(ReplyBody{OpenReply{FileId{4}, FileAttr{10, 20, 2},
                                   {Extent{DiskId{1}, 0, 8}, Extent{DiskId{2}, 8, 8}}}}),
      mk_reply(ReplyBody{ErrReply{ErrorCode::kLeaseExpired}}),
      mk_reply(ReplyBody{OkReply{}}, FrameKind::kNack),
  };
  for (const Frame& f : frames) {
    const Bytes via_encode = encode(f);
    EXPECT_EQ(encoded_size(f), via_encode.size());
    Bytes out;
    encode_into(f, out);
    EXPECT_EQ(out, via_encode);
    EXPECT_EQ(out.capacity(), encoded_size(f));
  }
}

// Pins the wire size of every frame a steady lock/renewal swarm sends; the
// per-op control bytes in EXPERIMENTS.md M10 are sums of these. Every frame
// starts with a 21-byte header: kind 1 + sender 4 + msg id 8 + epoch 4 +
// server incarnation 4. The incarnation (4 B per frame) and the 64-bit grant
// cookie (8 B on UnlockReq, DemandDoneReq, LockReply and LockGrant) are the
// byzantine-hardening fields; dropping either would change these numbers.
TEST(Codec, HotFrameSizesArePinned) {
  Frame client_ack;
  client_ack.kind = FrameKind::kClientAck;
  Frame server_msg;
  server_msg.kind = FrameKind::kServerMsg;

  EXPECT_EQ(encoded_size(client_ack), 21u);  // header only
  EXPECT_EQ(encoded_size(mk_reply(ReplyBody{}, FrameKind::kNack)), 21u);
  EXPECT_EQ(encoded_size(mk_request(KeepAliveReq{})), 22u);      // + tag
  EXPECT_EQ(encoded_size(mk_request(LockReq{FileId{9}, LockMode::kShared})),
            27u);  // + tag, file, mode
  EXPECT_EQ(encoded_size(mk_request(UnlockReq{FileId{9}, LockMode::kNone, 7, 0xC00C1E})),
            39u);  // + tag, file, mode, gen, cookie
  EXPECT_EQ(encoded_size(mk_request(DemandDoneReq{FileId{9}, LockMode::kNone, 7, 0xC00C1E})),
            39u);
  EXPECT_EQ(encoded_size(mk_reply(ReplyBody{OkReply{}})), 22u);  // + tag
  EXPECT_EQ(encoded_size(mk_reply(ReplyBody{LockReply{true, LockMode::kShared, 7, 0xC00C1E}})),
            36u);  // + tag, granted, mode, gen, cookie
  server_msg.body = ServerBody{LockDemand{FileId{9}, LockMode::kNone, 7}};
  EXPECT_EQ(encoded_size(server_msg), 31u);  // + tag, file, mode, gen
  server_msg.body = ServerBody{LockGrant{FileId{9}, LockMode::kShared, 7, 0xC00C1E}};
  EXPECT_EQ(encoded_size(server_msg), 39u);  // + tag, file, mode, gen, cookie
}

TEST(Codec, EncodeIntoReusesAndClearsTheBuffer) {
  Bytes buf;
  encode_into(mk_request(OpenReq{"/first/longer/path", true}), buf);
  const Bytes first = buf;
  encode_into(mk_request(KeepAliveReq{}), buf);
  EXPECT_EQ(buf.size(), encoded_size(mk_request(KeepAliveReq{})));
  EXPECT_NE(buf, first);
  ASSERT_TRUE(decode(buf).has_value());
}

TEST(Codec, LockReqRoundTrip) {
  Frame f = mk_request(LockReq{FileId{9}, LockMode::kExclusive});
  auto d = decode(encode(f));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(decoded_request<LockReq>(*d).file, FileId{9});
  EXPECT_EQ(decoded_request<LockReq>(*d).mode, LockMode::kExclusive);
}

TEST(Codec, UnlockAndDemandDoneCarryGen) {
  auto d1 = decode(encode(mk_request(UnlockReq{FileId{1}, LockMode::kShared, 77})));
  ASSERT_TRUE(d1);
  EXPECT_EQ(decoded_request<UnlockReq>(*d1).gen, 77u);

  auto d2 = decode(encode(mk_request(DemandDoneReq{FileId{2}, LockMode::kNone, 88})));
  ASSERT_TRUE(d2);
  EXPECT_EQ(decoded_request<DemandDoneReq>(*d2).gen, 88u);
  EXPECT_EQ(decoded_request<DemandDoneReq>(*d2).new_mode, LockMode::kNone);
}

TEST(Codec, SetSizeCarriesTruncateFlag) {
  auto d = decode(encode(mk_request(SetSizeReq{FileId{4}, 1 << 20, true})));
  ASSERT_TRUE(d);
  EXPECT_EQ(decoded_request<SetSizeReq>(*d).new_size, 1u << 20);
  EXPECT_TRUE(decoded_request<SetSizeReq>(*d).truncate);
}

TEST(Codec, EmptyBodiedRequests) {
  for (RequestBody b : {RequestBody{KeepAliveReq{}}, RequestBody{RegisterReq{}}}) {
    auto d = decode(encode(mk_request(b)));
    ASSERT_TRUE(d);
    EXPECT_EQ(std::get<RequestBody>(d->body).index(), b.index());
  }
}

TEST(Codec, DataRequestsRoundTrip) {
  auto d1 = decode(encode(mk_request(ReadDataReq{FileId{1}, 4096, 512})));
  ASSERT_TRUE(d1);
  EXPECT_EQ(decoded_request<ReadDataReq>(*d1).offset, 4096u);
  EXPECT_EQ(decoded_request<ReadDataReq>(*d1).len, 512u);

  Bytes payload{1, 2, 3, 4, 5, 0, 255};
  auto d2 = decode(encode(mk_request(WriteDataReq{FileId{2}, 7, payload})));
  ASSERT_TRUE(d2);
  EXPECT_EQ(decoded_request<WriteDataReq>(*d2).data, payload);
}

TEST(Codec, OpenReplyWithExtents) {
  OpenReply rep;
  rep.file = FileId{12};
  rep.attr = FileAttr{1 << 16, 123456789, 7};
  rep.extents = {Extent{DiskId{1}, 100, 16}, Extent{DiskId{2}, 0, 8}};
  auto d = decode(encode(mk_reply(ReplyBody{rep})));
  ASSERT_TRUE(d);
  const auto& got = decoded_reply<OpenReply>(*d);
  EXPECT_EQ(got.file, FileId{12});
  EXPECT_EQ(got.attr.size, 1u << 16);
  EXPECT_EQ(got.attr.mtime_ns, 123456789u);
  EXPECT_EQ(got.attr.meta_version, 7u);
  ASSERT_EQ(got.extents.size(), 2u);
  EXPECT_EQ(got.extents[1].disk, DiskId{2});
  EXPECT_EQ(got.extents[0].start, 100u);
  EXPECT_EQ(got.extents[0].count, 16u);
}

TEST(Codec, LockReplyCarriesGen) {
  auto d = decode(encode(mk_reply(ReplyBody{LockReply{true, LockMode::kShared, 31}})));
  ASSERT_TRUE(d);
  EXPECT_TRUE(decoded_reply<LockReply>(*d).granted);
  EXPECT_EQ(decoded_reply<LockReply>(*d).gen, 31u);
}

TEST(Codec, ErrReplyRoundTrip) {
  auto d = decode(encode(mk_reply(ReplyBody{ErrReply{ErrorCode::kNoSpace}})));
  ASSERT_TRUE(d);
  EXPECT_EQ(decoded_reply<ErrReply>(*d).code, ErrorCode::kNoSpace);
}

TEST(Codec, NackHasNoBody) {
  Frame f = mk_reply(ReplyBody{}, FrameKind::kNack);
  auto d = decode(encode(f));
  ASSERT_TRUE(d);
  EXPECT_EQ(d->kind, FrameKind::kNack);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(d->body));
}

TEST(Codec, ClientAckRoundTrip) {
  Frame f;
  f.kind = FrameKind::kClientAck;
  f.sender = NodeId{100};
  f.msg_id = MsgId{7};
  f.epoch = 1;
  auto d = decode(encode(f));
  ASSERT_TRUE(d);
  expect_header_round_trip(f, *d);
}

TEST(Codec, ServerMsgsRoundTrip) {
  Frame f;
  f.kind = FrameKind::kServerMsg;
  f.sender = NodeId{1};
  f.msg_id = MsgId{5};
  f.epoch = 2;
  f.body = ServerBody{LockDemand{FileId{3}, LockMode::kShared, 9}};
  auto d = decode(encode(f));
  ASSERT_TRUE(d);
  const auto& dem = std::get<LockDemand>(std::get<ServerBody>(d->body));
  EXPECT_EQ(dem.file, FileId{3});
  EXPECT_EQ(dem.max_mode, LockMode::kShared);
  EXPECT_EQ(dem.gen, 9u);

  f.body = ServerBody{LockGrant{FileId{4}, LockMode::kExclusive, 10}};
  auto d2 = decode(encode(f));
  ASSERT_TRUE(d2);
  const auto& g = std::get<LockGrant>(std::get<ServerBody>(d2->body));
  EXPECT_EQ(g.mode, LockMode::kExclusive);
  EXPECT_EQ(g.gen, 10u);
}

TEST(Codec, RejectsEmptyDatagram) { EXPECT_FALSE(decode(Bytes{}).has_value()); }

TEST(Codec, RejectsUnknownFrameKind) {
  Bytes b = encode(mk_request(KeepAliveReq{}));
  b[0] = 99;
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Codec, RejectsTrailingGarbage) {
  Bytes b = encode(mk_request(KeepAliveReq{}));
  b.push_back(0);
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Codec, RejectsTruncation) {
  Bytes b = encode(mk_request(OpenReq{"/path", false}));
  for (std::size_t cut = 1; cut < b.size(); ++cut) {
    Bytes t(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode(t).has_value()) << "accepted truncation at " << cut;
  }
}

TEST(Codec, RejectsOutOfRangeLockMode) {
  Bytes b = encode(mk_request(LockReq{FileId{1}, LockMode::kShared}));
  // The mode byte is the last one of this encoding.
  b.back() = 17;
  EXPECT_FALSE(decode(b).has_value());
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  sim::Rng rng(1234);
  for (int i = 0; i < 20000; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    Bytes b(len);
    for (auto& byte : b) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)decode(b);  // must not crash or hang; may or may not parse
  }
}

TEST(Codec, FuzzBitFlippedValidFramesNeverCrash) {
  sim::Rng rng(99);
  Frame f = mk_request(OpenReq{"/fuzz/target", true});
  const Bytes orig = encode(f);
  for (int i = 0; i < 5000; ++i) {
    Bytes b = orig;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(b.size()) - 1));
    b[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    auto d = decode(b);
    if (d && d->kind == FrameKind::kRequest) {
      // If it decodes, the body must still be a structurally valid request.
      (void)request_name(std::get<RequestBody>(d->body));
    }
  }
}


TEST(Codec, GoldenWireBytesStable) {
  // Byte-exact encodings of representative frames. A mismatch means the wire
  // format changed — which must be a conscious, versioned decision, not an
  // accident.
  struct Golden {
    const char* name;
    Frame frame;
    Bytes bytes;
  };
  Frame req = mk_request(KeepAliveReq{});
  Frame lock = mk_request(LockReq{FileId{9}, LockMode::kExclusive});
  Frame done = mk_request(DemandDoneReq{FileId{4}, LockMode::kShared, 12});
  Frame reply = mk_reply(ReplyBody{LockReply{true, LockMode::kShared, 5}});
  Frame demand;
  demand.kind = FrameKind::kServerMsg;
  demand.sender = NodeId{1};
  demand.msg_id = MsgId{2};
  demand.epoch = 3;
  demand.body = ServerBody{LockDemand{FileId{4}, LockMode::kNone, 8}};
  Frame nack = mk_reply(ReplyBody{}, FrameKind::kNack);

  // Conscious wire changes to date: the header carries a u32 server
  // incarnation after the epoch (cross-incarnation replay fix), and
  // UnlockReq/DemandDoneReq/LockReply/LockGrant carry a u64 per-grant cookie
  // (forged-release fix found by fuzz_safety --byzantine).
  const std::vector<Golden> goldens = {
      {"keepalive", req,
       {0x01, 0x64, 0x00, 0x00, 0x00, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08}},
      {"lockreq", lock,
       {0x01, 0x64, 0x00, 0x00, 0x00, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x09, 0x00, 0x00, 0x00, 0x02}},
      {"demanddone", done,
       {0x01, 0x64, 0x00, 0x00, 0x00, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x04, 0x00, 0x00, 0x00, 0x01, 0x0C,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
      {"lockreply", reply,
       {0x02, 0x01, 0x00, 0x00, 0x00, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x01, 0x01, 0x05, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
      {"demand", demand,
       {0x04, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x00, 0x08,
        0x00, 0x00, 0x00}},
      {"nack", nack,
       {0x03, 0x01, 0x00, 0x00, 0x00, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
  };
  for (const auto& g : goldens) {
    EXPECT_EQ(encode(g.frame), g.bytes) << "wire format drifted for " << g.name;
    auto d = decode(g.bytes);
    EXPECT_TRUE(d.has_value()) << g.name;
  }
}

TEST(Codec, RequestNamesAreDistinct) {
  EXPECT_STREQ(request_name(RequestBody{OpenReq{}}), "open");
  EXPECT_STREQ(request_name(RequestBody{KeepAliveReq{}}), "keepalive");
  EXPECT_STREQ(request_name(RequestBody{RegisterReq{}}), "register");
  EXPECT_STREQ(request_name(RequestBody{RenewObjReq{}}), "renew-obj");
  EXPECT_STREQ(request_name(RequestBody{WriteDataReq{}}), "write-data");
}

}  // namespace
}  // namespace stank::protocol
