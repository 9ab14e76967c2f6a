// Unit tests for the simulation base: virtual clock, RNG, observer lists, byte codec,
// immutable blobs, and the cost-model helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/blob.h"
#include "src/sim/bytes.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/observers.h"
#include "src/sim/rng.h"

namespace pmig::sim {
namespace {

TEST(VirtualClock, StartsAtZero) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
}

TEST(VirtualClock, AdvanceMovesTime) {
  VirtualClock clock;
  clock.Advance(Millis(5));
  EXPECT_EQ(clock.now(), Millis(5));
}

TEST(VirtualClock, TimerFiresAtDeadline) {
  VirtualClock clock;
  Nanos fired_at = -1;
  clock.CallAfter(Millis(10), [&] { fired_at = clock.now(); });
  clock.Advance(Millis(5));
  EXPECT_EQ(fired_at, -1);
  clock.Advance(Millis(5));
  EXPECT_EQ(fired_at, Millis(10));
}

TEST(VirtualClock, TimersFireInDeadlineOrder) {
  VirtualClock clock;
  std::vector<int> order;
  clock.CallAfter(Millis(20), [&] { order.push_back(2); });
  clock.CallAfter(Millis(10), [&] { order.push_back(1); });
  clock.CallAfter(Millis(30), [&] { order.push_back(3); });
  clock.Advance(Millis(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(VirtualClock, EqualDeadlinesFireFifo) {
  VirtualClock clock;
  std::vector<int> order;
  clock.CallAfter(Millis(10), [&] { order.push_back(1); });
  clock.CallAfter(Millis(10), [&] { order.push_back(2); });
  clock.Advance(Millis(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(VirtualClock, CancelledTimerDoesNotFire) {
  VirtualClock clock;
  bool fired = false;
  const uint64_t id = clock.CallAfter(Millis(10), [&] { fired = true; });
  clock.CancelTimer(id);
  clock.Advance(Millis(20));
  EXPECT_FALSE(fired);
}

TEST(VirtualClock, TimerMayScheduleAnotherTimer) {
  VirtualClock clock;
  bool inner = false;
  clock.CallAfter(Millis(10), [&] {
    clock.CallAfter(Millis(10), [&] { inner = true; });
  });
  clock.Advance(Millis(30));
  EXPECT_TRUE(inner);
}

TEST(VirtualClock, NextDeadlineReportsEarliest) {
  VirtualClock clock;
  EXPECT_EQ(clock.NextDeadline(), -1);
  clock.CallAfter(Millis(50), [] {});
  clock.CallAfter(Millis(20), [] {});
  EXPECT_EQ(clock.NextDeadline(), Millis(20));
}

TEST(VirtualClock, NowInsideTimerEqualsDeadline) {
  VirtualClock clock;
  Nanos inside = -1;
  clock.CallAfter(Millis(7), [&] { inside = clock.now(); });
  clock.Advance(Millis(100));
  EXPECT_EQ(inside, Millis(7));
  EXPECT_EQ(clock.now(), Millis(100));
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(13), 13u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.Range(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.Double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, IdentHasRequestedLength) {
  Rng rng(3);
  EXPECT_EQ(rng.Ident(8).size(), 8u);
}

TEST(Observers, PublishDeliversInRegistrationOrder) {
  Observers<int> observers;
  std::vector<std::pair<char, int>> seen;
  observers.Add([&seen](const int& e) { seen.emplace_back('a', e); });
  const uint64_t b = observers.Add([&seen](const int& e) { seen.emplace_back('b', e); });
  observers.Add([&seen](const int& e) { seen.emplace_back('c', e); });
  observers.Publish(1);
  observers.Remove(b);
  observers.Publish(2);
  EXPECT_EQ(seen, (std::vector<std::pair<char, int>>{
                      {'a', 1}, {'b', 1}, {'c', 1}, {'a', 2}, {'c', 2}}));
}

TEST(Observers, MutationMidPublishIsSafe) {
  Observers<int> observers;
  std::vector<std::string> seen;
  uint64_t self = 0;
  uint64_t later = 0;
  // The first observer removes itself and a later one, and adds a new one.
  self = observers.Add([&](const int&) {
    seen.push_back("self");
    observers.Remove(self);
    observers.Remove(later);
    observers.Add([&seen](const int&) { seen.push_back("added"); });
  });
  observers.Add([&seen](const int&) { seen.push_back("kept"); });
  later = observers.Add([&seen](const int&) { seen.push_back("later"); });
  observers.Publish(1);
  // The removed later observer is skipped; the added one waits a publish.
  EXPECT_EQ(seen, (std::vector<std::string>{"self", "kept"}));
  observers.Publish(2);
  EXPECT_EQ(seen, (std::vector<std::string>{"self", "kept", "kept", "added"}));
}

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0xCDEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-7);
  w.I64(-9000000000LL);
  ByteReader r(w.str());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xCDEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -7);
  EXPECT_EQ(r.I64(), -9000000000LL);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Bytes, RoundTripStringAndBlob) {
  ByteWriter w;
  w.Str("hello world");
  w.Blob({1, 2, 3});
  ByteReader r(w.str());
  EXPECT_EQ(r.Str(), "hello world");
  EXPECT_EQ(r.Blob(), (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, TruncatedInputSetsNotOk) {
  ByteWriter w;
  w.U32(5);
  ByteReader r(w.str().substr(0, 2));
  (void)r.U32();
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, OversizedStringLengthFailsGracefully) {
  ByteWriter w;
  w.U32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.str());
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());
}

// --- HashBytes: the segment digest ---

// Byte i is i * 131 + 7 (mod 256): a fixed input for the golden values below.
std::vector<uint8_t> Pattern(size_t len) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; ++i) out[i] = static_cast<uint8_t>(i * 131 + 7);
  return out;
}

// Segment-cache files are named by these digests (content addresses), so any
// change to the function must fail here. The lengths cover each code path:
// empty, one tail byte, a 4-byte step plus bytes, one word, the longest tail
// (3 words, a 4-byte step, 3 bytes), one and two stripes with and without a
// tail, and a data-segment-sized buffer.
TEST(HashBytes, GoldenValues) {
  const std::pair<size_t, uint64_t> golden[] = {
      {0, 0xEF46DB3751D8E999ull},      {1, 0xA96C7F0CE858BBB7ull},
      {7, 0x2744460DD675D2C0ull},      {8, 0x994B676B71CE94DDull},
      {31, 0x6711D55E306B5D8Full},     {32, 0x07F7B8E3BC5D6E25ull},
      {33, 0x09F85EEB4E1CBE9Full},     {63, 0xB7C9968C066CB6A5ull},
      {64, 0x50D4159A0411632Eull},     {65, 0xD277176BFF863EFCull},
      {100000, 0xC2BD8810328656CFull},
  };
  for (const auto& [len, digest] : golden) {
    EXPECT_EQ(HashBytes(Pattern(len)), digest) << "length " << len;
  }
}

// The function is XXH64 with seed 0: its published values.
TEST(HashBytes, IsXxh64WithSeedZero) {
  EXPECT_EQ(HashBytes(std::string_view()), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(HashBytes(std::string_view("abc")), 0x44BC2CF5AD770999ull);
}

// 4,099 bytes, a multiple of neither 8 nor 32: 128 stripes, then 3 tail bytes.
std::vector<uint8_t> SeededBytes() {
  Rng rng(0xd16e57);
  std::vector<uint8_t> bytes(4099);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(HashBytes, EverySingleBitFlipChangesTheDigest) {
  std::vector<uint8_t> bytes = SeededBytes();
  const uint64_t digest = HashBytes(bytes);
  int flips = 0;
  int unchanged = 0;
  for (uint8_t& byte : bytes) {
    for (int bit = 0; bit < 8; ++bit) {
      byte = static_cast<uint8_t>(byte ^ (1u << bit));
      if (HashBytes(bytes) == digest) ++unchanged;
      byte = static_cast<uint8_t>(byte ^ (1u << bit));
      ++flips;
    }
  }
  EXPECT_EQ(flips, 32792);
  EXPECT_EQ(unchanged, 0);
}

// The length is mixed in, and every byte is read: no two of the 4,100
// prefixes (the empty one included) share a digest.
TEST(HashBytes, AllPrefixesHashDistinctly) {
  const std::vector<uint8_t> bytes = SeededBytes();
  std::vector<uint64_t> digests;
  for (size_t len = 0; len <= bytes.size(); ++len) {
    digests.push_back(HashBytes(bytes.data(), len));
  }
  ASSERT_EQ(digests.size(), 4100u);
  std::sort(digests.begin(), digests.end());
  EXPECT_EQ(std::adjacent_find(digests.begin(), digests.end()), digests.end());
}

// --- Blob: hash once, copy never ---

TEST(Blob, DigestIsHashBytesOfTheBytes) {
  const Blob blob(std::string("segment bytes"));
  EXPECT_FALSE(blob.digest_kept());
  EXPECT_EQ(blob.Digest(), HashBytes(std::string_view("segment bytes")));
  EXPECT_TRUE(blob.digest_kept());
  EXPECT_EQ(Blob().Digest(), HashBytes(std::string_view()));
}

TEST(Blob, CopiesShareBytesAndKeptDigest) {
  const Blob original(std::vector<uint8_t>(4096, 0x5a));
  const Blob copy = original;
  EXPECT_EQ(copy.data(), original.data());  // the same buffer, not equal bytes
  EXPECT_FALSE(copy.digest_kept());
  const uint64_t digest = original.Digest();
  EXPECT_TRUE(copy.digest_kept());  // hashed through one copy, kept for all
  EXPECT_EQ(copy.Digest(), digest);
}

TEST(Blob, FlippedBytesMakeANewBlobWithANewDigest) {
  const Blob original(std::string("abcdefgh"));
  const uint64_t digest = original.Digest();
  std::string flipped(original.view());
  flipped[0] = static_cast<char>(flipped[0] ^ 0x01);
  const Blob changed(std::move(flipped));
  EXPECT_NE(changed.data(), original.data());
  EXPECT_FALSE(changed.digest_kept());
  EXPECT_NE(changed.Digest(), digest);
  EXPECT_EQ(original.Digest(), digest);  // the original's bytes never changed
  EXPECT_EQ(original.view(), "abcdefgh");
}

TEST(CostModel, DiskIoRoundsUpBlocks) {
  CostModel costs;
  EXPECT_EQ(costs.DiskIo(1).wait, costs.disk_block_latency);
  EXPECT_EQ(costs.DiskIo(costs.disk_block_bytes).wait, costs.disk_block_latency);
  EXPECT_EQ(costs.DiskIo(costs.disk_block_bytes + 1).wait, 2 * costs.disk_block_latency);
  EXPECT_EQ(costs.DiskIo(0).wait, 0);
  EXPECT_EQ(costs.DiskIo(0).cpu, 0);
}

TEST(CostModel, NetIoIncludesRpcLatency) {
  CostModel costs;
  EXPECT_GE(costs.NetIo(0).wait, costs.nfs_rpc);
  EXPECT_GT(costs.NetIo(1000).wait, costs.NetIo(10).wait);
}

}  // namespace
}  // namespace pmig::sim
