// Tests for the binary wire codec: primitive round-trips, full Wire
// round-trips for every alternative, the packet header, malformed-input
// rejection, and a randomized round-trip sweep.
#include <gtest/gtest.h>

#include "net/codec.hpp"
#include "util/rng.hpp"

namespace samoa::net {
namespace {

using namespace samoa::gc;

TEST(ByteCodec, VarintRoundTrip) {
  ByteWriter w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384, 1ull << 32,
                                  ~std::uint64_t{0}};
  for (auto v : values) w.put_varint(v);
  auto bytes = w.take();
  ByteReader r(bytes);
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteCodec, VarintIsCompact) {
  ByteWriter w;
  w.put_varint(5);
  EXPECT_EQ(w.bytes().size(), 1u);
  w.put_varint(300);
  EXPECT_EQ(w.bytes().size(), 3u);  // 1 + 2
}

TEST(ByteCodec, StringRoundTrip) {
  ByteWriter w;
  w.put_string("");
  w.put_string("hello");
  w.put_string(std::string(1000, 'x'));
  auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), std::string(1000, 'x'));
}

TEST(ByteCodec, TruncatedInputThrows) {
  ByteWriter w;
  w.put_string("hello");
  auto bytes = w.take();
  bytes.resize(3);  // cut mid-string
  ByteReader r(bytes);
  EXPECT_THROW(r.get_string(), CodecError);

  std::vector<std::uint8_t> empty;
  ByteReader r2(empty);
  EXPECT_THROW(r2.get_u8(), CodecError);
  EXPECT_THROW(ByteReader(empty).get_varint(), CodecError);
}

TEST(ByteCodec, OverlongVarintThrows) {
  std::vector<std::uint8_t> bytes(11, 0x80);  // never terminates within 64 bits
  ByteReader r(bytes);
  EXPECT_THROW(r.get_varint(), CodecError);
}

template <typename T>
void expect_roundtrip(SiteId from, const T& msg, bool (*eq)(const T&, const T&)) {
  const auto bytes = encode_wire(from, 0, Wire{msg});
  const auto fw = decode_wire(bytes);
  EXPECT_EQ(fw.from, from);
  EXPECT_EQ(fw.frontier, 0u);
  ASSERT_TRUE(std::holds_alternative<T>(fw.wire));
  EXPECT_TRUE(eq(std::get<T>(fw.wire), msg));
}

TEST(WireCodec, HeaderFrontierRoundTrip) {
  // Every packet carries its sender's frontier, whatever its body.
  for (const std::uint64_t frontier : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{300},
                                       std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    for (const Wire& wire : {Wire{RcAck{7}}, Wire{FdHeartbeat{}}, Wire{CsDecide{9, {}}}}) {
      const auto fw = decode_wire(encode_wire(SiteId{6}, frontier, wire));
      EXPECT_EQ(fw.from, SiteId{6});
      EXPECT_EQ(fw.frontier, frontier);
      EXPECT_EQ(fw.wire.index(), wire.index());
    }
  }
}

TEST(WireCodec, HeaderTruncatedInsideTheFrontierThrows) {
  // from (1 byte), then a 6-byte frontier varint: every prefix of 1 to 6
  // bytes ends before the frontier is complete.
  const auto full = encode_wire(SiteId{1}, std::uint64_t{1} << 40, Wire{RcAck{7}});
  ASSERT_EQ(full.size(), 1u + 6u + 2u);
  for (std::size_t cut = 1; cut <= 6; ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + cut);
    EXPECT_THROW(decode_wire(prefix), CodecError) << "prefix length " << cut;
  }
}

TEST(WireCodec, RcDataRoundTrip) {
  expect_roundtrip<RcData>(SiteId{3}, RcData{42, AppMessage{77, "payload"}},
                           [](const RcData& a, const RcData& b) {
                             return a.seq == b.seq && a.body == b.body;
                           });
}

TEST(WireCodec, RcAckRoundTrip) {
  expect_roundtrip<RcAck>(SiteId{1}, RcAck{99},
                          [](const RcAck& a, const RcAck& b) { return a.seq == b.seq; });
}

TEST(WireCodec, HeartbeatRoundTrip) {
  expect_roundtrip<FdHeartbeat>(SiteId{0}, FdHeartbeat{},
                                [](const FdHeartbeat&, const FdHeartbeat&) { return true; });
}

TEST(WireCodec, ConsensusMessagesRoundTrip) {
  expect_roundtrip<CsPrepare>(SiteId{2}, CsPrepare{5, 1000001},
                              [](const CsPrepare& a, const CsPrepare& b) {
                                return a.instance == b.instance && a.round == b.round;
                              });
  expect_roundtrip<CsAccepted>(SiteId{2}, CsAccepted{5, 1000001},
                               [](const CsAccepted& a, const CsAccepted& b) {
                                 return a.instance == b.instance && a.round == b.round;
                               });
  expect_roundtrip<CsAccept>(
      SiteId{4}, CsAccept{7, 3, {AppMessage{1, "a"}, AppMessage{2, "b"}}},
      [](const CsAccept& a, const CsAccept& b) {
        return a.instance == b.instance && a.round == b.round && a.value == b.value;
      });
  expect_roundtrip<CsDecide>(SiteId{4}, CsDecide{7, {AppMessage{1, "a"}}},
                             [](const CsDecide& a, const CsDecide& b) {
                               return a.instance == b.instance && a.value == b.value;
                             });
}

TEST(WireCodec, PromiseWithAndWithoutValue) {
  expect_roundtrip<CsPromise>(SiteId{5}, CsPromise{1, 2, 0, std::nullopt},
                              [](const CsPromise& a, const CsPromise& b) {
                                return a.instance == b.instance && a.round == b.round &&
                                       a.accepted_round == b.accepted_round &&
                                       a.accepted_value == b.accepted_value;
                              });
  expect_roundtrip<CsPromise>(
      SiteId{5}, CsPromise{1, 9, 4, ConsensusValue{AppMessage{11, "v"}}},
      [](const CsPromise& a, const CsPromise& b) {
        return a.accepted_value == b.accepted_value && a.accepted_round == b.accepted_round;
      });
}

TEST(WireCodec, ViewInstallRoundTrip) {
  const auto same = [](const ViewInstall& a, const ViewInstall& b) {
    return a.view_id == b.view_id && a.members == b.members &&
           a.next_instance == b.next_instance;
  };
  // A join's install carries the rejoin floor; the bootstrap install has none.
  expect_roundtrip<ViewInstall>(SiteId{0},
                                ViewInstall{3, {SiteId{0}, SiteId{1}, SiteId{2}}, 300}, same);
  expect_roundtrip<ViewInstall>(SiteId{4}, ViewInstall{1, {SiteId{4}}, 0}, same);
}

TEST(WireCodec, SwimMessagesRoundTrip) {
  const std::vector<SwimUpdate> updates = {
      SwimUpdate{SwimStatus::kAlive, SiteId{7}, 3},
      SwimUpdate{SwimStatus::kSuspect, SiteId{12}, 0},
      SwimUpdate{SwimStatus::kFaulty, SiteId{900}, 17},
  };
  expect_roundtrip<SwimPing>(SiteId{2}, SwimPing{41, updates},
                             [](const SwimPing& a, const SwimPing& b) {
                               return a.seq == b.seq && a.updates == b.updates;
                             });
  expect_roundtrip<SwimPing>(SiteId{2}, SwimPing{42, {}},
                             [](const SwimPing& a, const SwimPing& b) {
                               return a.seq == b.seq && a.updates == b.updates;
                             });
  expect_roundtrip<SwimAck>(SiteId{9}, SwimAck{41, SiteId{5}, updates},
                            [](const SwimAck& a, const SwimAck& b) {
                              return a.seq == b.seq && a.on_behalf_of == b.on_behalf_of &&
                                     a.updates == b.updates;
                            });
  expect_roundtrip<SwimPingReq>(SiteId{0}, SwimPingReq{77, SiteId{3}, updates},
                                [](const SwimPingReq& a, const SwimPingReq& b) {
                                  return a.seq == b.seq && a.target == b.target &&
                                         a.updates == b.updates;
                                });
}

TEST(WireCodec, SwimBadStatusByteThrows) {
  // Corrupt the status byte of the first piggybacked update: only 0..2
  // decode; anything else must throw, not silently map to a state.
  auto bytes = encode_wire(SiteId{1}, 0,
                           Wire{SwimPing{1, {SwimUpdate{SwimStatus::kAlive, SiteId{2}, 0}}}});
  // Layout: from varint, frontier varint, tag u8, seq varint, count
  // varint, status u8, ... For these small values every varint is one
  // byte, so status is bytes[5].
  ASSERT_GT(bytes.size(), 5u);
  bytes[5] = 9;
  EXPECT_THROW(decode_wire(bytes), CodecError);
}

TEST(WireCodec, UnknownTagThrows) {
  ByteWriter w;
  w.put_varint(0);  // from
  w.put_varint(0);  // frontier
  w.put_u8(200);    // bogus tag
  EXPECT_THROW(decode_wire(w.take()), CodecError);
}

TEST(WireCodec, SiteIdBeyondItsRangeThrows) {
  // A site id is 32 bits: a wider varint in the header must not be
  // truncated into some other site's id.
  ByteWriter w;
  w.put_varint(std::uint64_t{1} << 32);  // from
  w.put_varint(0);                       // frontier
  w.put_u8(2);                           // RcAck
  w.put_varint(7);
  EXPECT_THROW(decode_wire(w.take()), CodecError);
}

TEST(WireCodec, TrailingBytesThrow) {
  auto bytes = encode_wire(SiteId{1}, 0, Wire{RcAck{7}});
  bytes.push_back(0xFF);
  EXPECT_THROW(decode_wire(bytes), CodecError);
}

TEST(WireCodec, TruncatedWireThrows) {
  const auto full = encode_wire(
      SiteId{1}, 5, Wire{RcData{42, AppMessage{77, "some payload data"}}});
  // Every strict prefix must throw, never crash or mis-decode silently.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> prefix(full.begin(), full.begin() + cut);
    EXPECT_THROW(decode_wire(prefix), CodecError) << "prefix length " << cut;
  }
}

TEST(WireCodec, RandomizedRoundTrips) {
  Rng rng(424242);
  for (int trial = 0; trial < 500; ++trial) {
    const SiteId from(static_cast<SiteId::value_type>(rng.next_below(1000)));
    Wire wire;
    switch (rng.next_below(6)) {
      case 0:
        wire = RcData{rng.next(), AppMessage{rng.next(), std::string(rng.next_below(50), 'q')}};
        break;
      case 1:
        wire = RcAck{rng.next()};
        break;
      case 2:
        wire = FdHeartbeat{};
        break;
      case 3: {
        ConsensusValue v;
        const auto n = rng.next_below(5);
        for (std::uint64_t i = 0; i < n; ++i) {
          v.push_back(AppMessage{rng.next(), std::string("m").append(std::to_string(i))});
        }
        wire = CsAccept{rng.next(), rng.next(), std::move(v)};
        break;
      }
      case 4:
        wire = CsPromise{rng.next(), rng.next(), rng.next(), std::nullopt};
        break;
      default: {
        std::vector<SiteId> members;
        const auto n = 1 + rng.next_below(7);
        for (std::uint64_t i = 0; i < n; ++i) {
          members.push_back(SiteId(static_cast<SiteId::value_type>(rng.next_below(100))));
        }
        wire = ViewInstall{rng.next(), std::move(members)};
        break;
      }
    }
    const std::uint64_t frontier = rng.next();
    const auto bytes = encode_wire(from, frontier, wire);
    const auto fw = decode_wire(bytes);
    EXPECT_EQ(fw.from, from);
    EXPECT_EQ(fw.frontier, frontier);
    EXPECT_EQ(fw.wire.index(), wire.index());
    EXPECT_STREQ(wire_kind(fw.wire), wire_kind(wire));
  }
}

}  // namespace
}  // namespace samoa::net
