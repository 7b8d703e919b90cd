// The codec layer (mapreduce/codec.h): varint encode/decode must round-trip
// every boundary value exactly; pair frames must round-trip arbitrary
// key/value pairs; and every way a byte window can be wrong — truncation at
// each byte, trailing bytes inside a payload, a bad kind, an absurd length
// — must come back kNeedMore or kMalformed, never a silently wrong pair
// (mirroring graph_io_test's malformed-input style).

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/codec.h"
#include "mapreduce/spill.h"
#include "util/rng.h"

namespace smr {
namespace {

using Bytes = std::vector<unsigned char>;

uint64_t RoundTripVarint(uint64_t value) {
  unsigned char buffer[kMaxVarintBytes];
  const size_t written = PutVarint(value, buffer);
  uint64_t decoded = 0;
  size_t consumed = 0;
  EXPECT_EQ(GetVarint(buffer, written, &decoded, &consumed), DecodeStatus::kOk);
  EXPECT_EQ(consumed, written);
  return decoded;
}

TEST(Varint, BoundaryValuesRoundTrip) {
  // The LEB128 length steps at every 7-bit boundary; check each edge plus
  // the extremes the issue calls out (0, 127, 128, UINT64_MAX).
  std::vector<uint64_t> cases = {0, 1, 127, 128, 255, 256,
                                 std::numeric_limits<uint64_t>::max()};
  for (int shift = 7; shift < 64; shift += 7) {
    cases.push_back((uint64_t{1} << shift) - 1);
    cases.push_back(uint64_t{1} << shift);
  }
  for (const uint64_t value : cases) {
    EXPECT_EQ(RoundTripVarint(value), value) << "value=" << value;
  }
}

TEST(Varint, EncodedLengths) {
  unsigned char buffer[kMaxVarintBytes];
  EXPECT_EQ(PutVarint(0, buffer), 1u);
  EXPECT_EQ(PutVarint(127, buffer), 1u);
  EXPECT_EQ(PutVarint(128, buffer), 2u);
  EXPECT_EQ(PutVarint(std::numeric_limits<uint64_t>::max(), buffer), 10u);
}

TEST(Varint, RandomRoundTripFuzz) {
  Rng rng(20260808);
  unsigned char buffer[kMaxVarintBytes];
  for (int i = 0; i < 20000; ++i) {
    // Bias toward small values and varied magnitudes: raw 64-bit draws
    // almost always take 10 bytes, which would leave short encodings cold.
    const uint64_t value = rng.Next() >> (rng.Next() % 64);
    const size_t written = PutVarint(value, buffer);
    uint64_t decoded = 0;
    size_t consumed = 0;
    ASSERT_EQ(GetVarint(buffer, written, &decoded, &consumed),
              DecodeStatus::kOk);
    ASSERT_EQ(decoded, value);
    ASSERT_EQ(consumed, written);
  }
}

TEST(Varint, TruncationAtEveryByteNeedsMore) {
  unsigned char buffer[kMaxVarintBytes];
  const size_t written =
      PutVarint(std::numeric_limits<uint64_t>::max(), buffer);
  for (size_t cut = 0; cut < written; ++cut) {
    uint64_t decoded = 0;
    size_t consumed = 0;
    EXPECT_EQ(GetVarint(buffer, cut, &decoded, &consumed),
              DecodeStatus::kNeedMore)
        << "cut=" << cut;
  }
}

TEST(Varint, OverlongEncodingIsMalformed) {
  // Eleven continuation bytes can never resolve to a uint64.
  const Bytes overlong(11, 0x80);
  uint64_t decoded = 0;
  size_t consumed = 0;
  EXPECT_EQ(GetVarint(overlong.data(), overlong.size(), &decoded, &consumed),
            DecodeStatus::kMalformed);
  // Ten bytes whose last carries more than the single remaining bit
  // overflow 64 bits even though the length is legal.
  Bytes overflow(9, 0xff);
  overflow.push_back(0x02);
  EXPECT_EQ(GetVarint(overflow.data(), overflow.size(), &decoded, &consumed),
            DecodeStatus::kMalformed);
}

using Edge = std::pair<uint32_t, uint32_t>;

TEST(RecordCodec, PairRoundTripBoundaryKeys) {
  const std::vector<uint64_t> keys = {0, 127, 128,
                                      std::numeric_limits<uint64_t>::max()};
  for (const uint64_t key : keys) {
    Bytes wire;
    RecordCodec<Edge>::EncodePair(key, {7, 9}, &wire);
    uint64_t decoded_key = 0;
    Edge decoded_value{};
    size_t consumed = 0;
    ASSERT_EQ(RecordCodec<Edge>::DecodePair(wire.data(), wire.size(),
                                            &decoded_key, &decoded_value,
                                            &consumed),
              DecodeStatus::kOk)
        << "key=" << key;
    EXPECT_EQ(decoded_key, key);
    EXPECT_EQ(decoded_value, Edge(7, 9));
    EXPECT_EQ(consumed, wire.size());
  }
}

TEST(RecordCodec, StreamOfPairsRoundTripsInOrder) {
  Rng rng(42);
  std::vector<std::pair<uint64_t, Edge>> pairs;
  Bytes wire;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t key = rng.Next() >> (rng.Next() % 64);
    const Edge value{static_cast<uint32_t>(rng.Next()),
                     static_cast<uint32_t>(rng.Next())};
    pairs.emplace_back(key, value);
    RecordCodec<Edge>::EncodePair(key, value, &wire);
  }
  size_t offset = 0;
  for (const auto& [key, value] : pairs) {
    uint64_t decoded_key = 0;
    Edge decoded_value{};
    size_t consumed = 0;
    ASSERT_EQ(RecordCodec<Edge>::DecodePair(wire.data() + offset,
                                            wire.size() - offset, &decoded_key,
                                            &decoded_value, &consumed),
              DecodeStatus::kOk);
    ASSERT_EQ(decoded_key, key);
    ASSERT_EQ(decoded_value, value);
    offset += consumed;
  }
  EXPECT_EQ(offset, wire.size());
}

TEST(RecordCodec, TruncationAtEveryByteNeedsMore) {
  Bytes wire;
  RecordCodec<Edge>::EncodePair(std::numeric_limits<uint64_t>::max(), {1, 2},
                                &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    uint64_t key = 0;
    Edge value{};
    size_t consumed = 0;
    EXPECT_EQ(RecordCodec<Edge>::DecodePair(wire.data(), cut, &key, &value,
                                            &consumed),
              DecodeStatus::kNeedMore)
        << "cut=" << cut;
  }
}

TEST(RecordCodec, TrailingBytesInsidePayloadAreMalformed) {
  // A frame whose payload carries extra bytes after the value re-frames to
  // a longer length; the pair decoder must reject it rather than read a
  // key/value and ignore the rest.
  unsigned char body[kMaxVarintBytes + sizeof(Edge) + 1];
  const size_t key_bytes = PutVarint(5, body);
  ValueCodec<Edge>::Store({3, 4}, body + key_bytes);
  body[key_bytes + sizeof(Edge)] = 0xcc;  // the trailing byte
  Bytes wire;
  AppendFrame(FrameKind::kPair, body, key_bytes + sizeof(Edge) + 1, &wire);
  uint64_t key = 0;
  Edge value{};
  size_t consumed = 0;
  EXPECT_EQ(
      RecordCodec<Edge>::DecodePair(wire.data(), wire.size(), &key, &value,
                                    &consumed),
      DecodeStatus::kMalformed);
}

TEST(RecordCodec, ShortValueIsMalformed) {
  unsigned char body[kMaxVarintBytes + sizeof(Edge)];
  const size_t key_bytes = PutVarint(5, body);
  ValueCodec<Edge>::Store({3, 4}, body + key_bytes);
  Bytes wire;
  AppendFrame(FrameKind::kPair, body, key_bytes + sizeof(Edge) - 1, &wire);
  uint64_t key = 0;
  Edge value{};
  size_t consumed = 0;
  EXPECT_EQ(
      RecordCodec<Edge>::DecodePair(wire.data(), wire.size(), &key, &value,
                                    &consumed),
      DecodeStatus::kMalformed);
}

TEST(Frame, UnknownKindIsMalformed) {
  Bytes wire;
  AppendVarint(2, &wire);
  wire.push_back(0x7f);  // no FrameKind has this tag
  wire.push_back(0x00);
  FrameView frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(wire.data(), wire.size(), &frame, &consumed),
            DecodeStatus::kMalformed);
}

TEST(Frame, EmptyPayloadIsMalformed) {
  Bytes wire;
  AppendVarint(0, &wire);  // a frame must at least carry its kind byte
  FrameView frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(wire.data(), wire.size(), &frame, &consumed),
            DecodeStatus::kMalformed);
}

TEST(Frame, AbsurdLengthIsMalformedNotStarved) {
  // A corrupted length prefix claiming 2^60 bytes must fail immediately,
  // not leave a reader waiting for bytes that never come.
  Bytes wire;
  AppendVarint(uint64_t{1} << 60, &wire);
  wire.push_back(static_cast<unsigned char>(FrameKind::kPair));
  FrameView frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(wire.data(), wire.size(), &frame, &consumed),
            DecodeStatus::kMalformed);
}

TEST(Frame, BlobRoundTripsThroughView) {
  const Bytes message = {'h', 'i', '!', 0x00, 0xff};
  Bytes wire;
  AppendFrame(FrameKind::kError, message.data(), message.size(), &wire);
  FrameView frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(wire.data(), wire.size(), &frame, &consumed),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.kind, FrameKind::kError);
  EXPECT_EQ(Bytes(frame.body, frame.body + frame.body_bytes), message);
  EXPECT_EQ(consumed, wire.size());
}

// ---------------------------------------------------------------------------
// DecodeFrameChecked: structural corruption throws, it never starves
// ---------------------------------------------------------------------------

TEST(CheckedFrame, CleanStreamDecodesLikeTheLenientPath) {
  Bytes wire;
  RecordCodec<Edge>::EncodePair(42, {7, 9}, &wire);
  unsigned char count[kMaxVarintBytes];
  AppendFrame(FrameKind::kEnd, count, PutVarint(1, count), &wire);
  size_t offset = 0;
  int frames = 0;
  while (offset < wire.size()) {
    FrameView frame;
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrameChecked(wire.data() + offset, wire.size() - offset,
                                 /*closed=*/true, kMaxFrameBytes, &frame,
                                 &consumed),
              DecodeStatus::kOk);
    offset += consumed;
    ++frames;
  }
  EXPECT_EQ(frames, 2);
}

TEST(CheckedFrame, OpenWindowTruncationNeedsMoreClosedWindowThrows) {
  Bytes wire;
  RecordCodec<Edge>::EncodePair(std::numeric_limits<uint64_t>::max(), {1, 2},
                                &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameView frame;
    size_t consumed = 0;
    // While the peer may still send, a cut window just waits...
    EXPECT_EQ(DecodeFrameChecked(wire.data(), cut, /*closed=*/false,
                                 kMaxFrameBytes, &frame, &consumed),
              DecodeStatus::kNeedMore)
        << "cut=" << cut;
    // ...but once the stream has ended, kNeedMore-forever must throw
    // instead (cut == 0 is simply an empty, fully-consumed window).
    if (cut == 0) continue;
    EXPECT_THROW(DecodeFrameChecked(wire.data(), cut, /*closed=*/true,
                                    kMaxFrameBytes, &frame, &consumed),
                 std::runtime_error)
        << "cut=" << cut;
  }
}

TEST(CheckedFrame, ImpossibleLengthNamesTheLinkLimit) {
  // A length prefix beyond the link's largest legal frame throws right
  // away with a message naming both numbers, instead of buffering 2^60
  // bytes that will never come.
  Bytes wire;
  AppendVarint(uint64_t{1} << 60, &wire);
  wire.push_back(static_cast<unsigned char>(FrameKind::kPair));
  FrameView frame;
  size_t consumed = 0;
  try {
    DecodeFrameChecked(wire.data(), wire.size(), /*closed=*/false, 4096,
                       &frame, &consumed);
    FAIL() << "an impossible length must throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("impossible"), std::string::npos) << what;
    EXPECT_NE(what.find("4096"), std::string::npos) << what;
  }
}

TEST(CheckedFrame, MalformedVarintEmptyPayloadAndBadKindThrow) {
  FrameView frame;
  size_t consumed = 0;

  const Bytes overlong(11, 0x80);  // varint that never terminates
  EXPECT_THROW(DecodeFrameChecked(overlong.data(), overlong.size(),
                                  /*closed=*/false, kMaxFrameBytes, &frame,
                                  &consumed),
               std::runtime_error);

  Bytes empty_payload;
  AppendVarint(0, &empty_payload);
  EXPECT_THROW(DecodeFrameChecked(empty_payload.data(), empty_payload.size(),
                                  /*closed=*/false, kMaxFrameBytes, &frame,
                                  &consumed),
               std::runtime_error);

  Bytes bad_kind;
  AppendVarint(2, &bad_kind);
  bad_kind.push_back(0xee);  // no FrameKind has this tag
  bad_kind.push_back(0x00);
  EXPECT_THROW(DecodeFrameChecked(bad_kind.data(), bad_kind.size(),
                                  /*closed=*/false, kMaxFrameBytes, &frame,
                                  &consumed),
               std::runtime_error);
}

// Byte-flip fuzz: every single-byte corruption of a valid multi-frame
// stream either still decodes (the flip landed in a payload the framing
// does not interpret) or throws a descriptive error — it must never leave
// a closed stream waiting for more bytes, and never crash.
TEST(CheckedFrame, ByteFlipFuzzTerminatesLoudlyOrDecodes) {
  Bytes wire;
  Rng rng(20260808);
  for (int i = 0; i < 20; ++i) {
    RecordCodec<Edge>::EncodePair(rng.Next() >> (rng.Next() % 64),
                                  {static_cast<uint32_t>(rng.Next()),
                                   static_cast<uint32_t>(rng.Next())},
                                  &wire);
  }
  unsigned char end_body[kMaxVarintBytes];
  AppendFrame(FrameKind::kEnd, end_body, PutVarint(20, end_body), &wire);

  size_t decoded_streams = 0;
  size_t rejected_streams = 0;
  for (size_t position = 0; position < wire.size(); ++position) {
    for (const unsigned char flip :
         {static_cast<unsigned char>(0x01), static_cast<unsigned char>(0x80),
          static_cast<unsigned char>(0xff)}) {
      Bytes corrupted = wire;
      corrupted[position] ^= flip;
      size_t offset = 0;
      try {
        while (offset < corrupted.size()) {
          FrameView frame;
          size_t consumed = 0;
          const DecodeStatus status = DecodeFrameChecked(
              corrupted.data() + offset, corrupted.size() - offset,
              /*closed=*/true, kMaxFrameBytes, &frame, &consumed);
          // closed=true: kNeedMore is impossible by contract — a window
          // that cannot complete throws instead.
          ASSERT_EQ(status, DecodeStatus::kOk)
              << "position=" << position << " flip=" << int(flip);
          ASSERT_GT(consumed, 0u);
          offset += consumed;
        }
        ++decoded_streams;
      } catch (const std::runtime_error& error) {
        EXPECT_GT(std::string(error.what()).size(), 0u);
        ++rejected_streams;
      }
    }
  }
  // Both outcomes must occur: flips in framing bytes reject, flips deep in
  // pair payloads survive the structural check.
  EXPECT_GT(decoded_streams, 0u);
  EXPECT_GT(rejected_streams, 0u);
}

TEST(ValueCodec, SpillTraitsShareTheValueEncoding) {
  // The spill path serializes values through the same codec (SpillTraits
  // is an alias of ValueCodec): identical byte layout.
  static_assert(SpillTraits<Edge>::kBytes == ValueCodec<Edge>::kBytes);
  unsigned char via_spill[sizeof(Edge)];
  unsigned char via_codec[sizeof(Edge)];
  const Edge value{123456, 654321};
  SpillTraits<Edge>::Store(value, via_spill);
  ValueCodec<Edge>::Store(value, via_codec);
  EXPECT_EQ(Bytes(via_spill, via_spill + sizeof(Edge)),
            Bytes(via_codec, via_codec + sizeof(Edge)));
  EXPECT_EQ(SpillTraits<Edge>::Load(via_codec), value);
}

}  // namespace
}  // namespace smr
