// Unit tests for src/base: ids, codecs, Result, deterministic RNG.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>

#include "src/base/codec.h"
#include "src/base/task.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/types.h"

namespace auragen {
namespace {

TEST(Gpid, EncodesClusterAndCounter) {
  Gpid g = Gpid::Make(7, 123456);
  EXPECT_EQ(g.origin_cluster(), 7u);
  EXPECT_TRUE(g.valid());
  EXPECT_FALSE(kNoGpid.valid());
  EXPECT_EQ(Gpid::Make(7, 123456), g);
  EXPECT_NE(Gpid::Make(8, 123456), g);
  EXPECT_LT(Gpid::Make(7, 1), Gpid::Make(7, 2));
}

TEST(Gpid, SurvivesLargeCounters) {
  Gpid g = Gpid::Make(31, 0xffffffffffffull);
  EXPECT_EQ(g.origin_cluster(), 31u);
}

TEST(Codec, RoundTripsScalars) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.I32(-42);
  w.I64(-1234567890123ll);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0xbeef);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1234567890123ll);
  EXPECT_TRUE(r.done());
}

TEST(Codec, RoundTripsBlobsAndStrings) {
  ByteWriter w;
  w.Blob(Bytes{1, 2, 3});
  w.Str("auros");
  w.Blob(Bytes{});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.Blob(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.Str(), "auros");
  EXPECT_TRUE(r.Blob().empty());
}

TEST(Codec, ShortReadPanics) {
  ByteWriter w;
  w.U16(7);
  ByteReader r(w.bytes());
  r.U16();
  EXPECT_DEATH(r.U32(), "short message");
}

TEST(Codec, Fnv1aStableAndSensitive) {
  Bytes a{1, 2, 3};
  Bytes b{1, 2, 4};
  EXPECT_EQ(Fnv1a(a), Fnv1a(a));
  EXPECT_NE(Fnv1a(a), Fnv1a(b));
  EXPECT_NE(Fnv1a(a), Fnv1a(Bytes{}));
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.error(), Errc::kOk);

  Result<int> bad(Errc::kNoEntry);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Errc::kNoEntry);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok = OkResult();
  EXPECT_TRUE(ok.ok());
  Result<void> bad(Errc::kIo);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Errc::kIo);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng c(54321);
  EXPECT_NE(Rng(12345).Next(), c.Next());
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.Below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    uint64_t v = rng.Range(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
  }
  EXPECT_EQ(rng.Range(9, 9), 9u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(99);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(ByteView, ViewsWithoutCopying) {
  Bytes owned{1, 2, 3, 4, 5};
  ByteView v(owned);  // implicit from Bytes
  EXPECT_EQ(v.size(), 5u);
  EXPECT_EQ(v.data(), owned.data());
  EXPECT_EQ(v[2], 3);
  ByteView sub = v.subview(1, 3);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.data(), owned.data() + 1);
  EXPECT_EQ(sub.ToBytes(), (Bytes{2, 3, 4}));
  EXPECT_TRUE(v == ByteView(owned));
  EXPECT_FALSE(v == sub);
}

TEST(ByteView, ReaderBlobViewIsZeroCopy) {
  ByteWriter w;
  w.U32(7);
  w.Blob(Bytes{9, 8, 7});
  Bytes encoded = w.Take();
  ByteReader r(encoded);
  EXPECT_EQ(r.U32(), 7u);
  ByteView body = r.BlobView();
  EXPECT_EQ(body.size(), 3u);
  EXPECT_GE(body.data(), encoded.data());
  EXPECT_LT(body.data(), encoded.data() + encoded.size());
  EXPECT_EQ(body.ToBytes(), (Bytes{9, 8, 7}));
}

TEST(BufferPool, RecyclesCapacityThroughPayloads) {
  BufferPool& pool = BufferPool::Get();
  const uint8_t* data0;
  {
    Bytes b = pool.Acquire(1000);
    b.assign(1000, 42);
    data0 = b.data();
    PayloadPtr p = MakePayload(std::move(b));
    EXPECT_EQ(p->size(), 1000u);
    // Dropping the last reference returns the buffer to the pool.
  }
  // A message-sized acquire does not take the 1000-byte buffer.
  Bytes small = pool.Acquire(40);
  EXPECT_NE(small.data(), data0);
  const uint64_t reuses1 = pool.reuses();
  Bytes again = pool.Acquire(1000);
  EXPECT_TRUE(again.empty());          // cleared, but capacity retained
  EXPECT_GE(again.capacity(), 1000u);
  EXPECT_EQ(again.data(), data0);      // the very same allocation came back
  EXPECT_EQ(pool.reuses(), reuses1 + 1);
  pool.Release(std::move(again));
  pool.Release(std::move(small));
}

TEST(BufferPool, CountsFreshAcquisitionsAndStaysBounded) {
  BufferPool& pool = BufferPool::Get();
  // Every acquire is either a reuse or a fresh allocation; holding
  // buffers of one size drains their class, after which acquires allocate.
  std::vector<Bytes> held;
  uint64_t fresh0 = pool.fresh();
  for (int i = 0; i < 5000 && pool.fresh() == fresh0; ++i) {
    const uint64_t total = pool.reuses() + pool.fresh();
    held.push_back(pool.Acquire(40));
    EXPECT_EQ(pool.reuses() + pool.fresh(), total + 1);
    EXPECT_GE(held.back().capacity(), 40u);
  }
  EXPECT_EQ(pool.fresh(), fresh0 + 1);
  // Releasing far more buffers than the pool keeps leaves it bounded.
  const size_t pooled0 = pool.pooled();
  for (int i = 0; i < 5000; ++i) {
    Bytes x;
    x.reserve(i % 2 == 0 ? 64 : 4096);
    pool.Release(std::move(x));
  }
  EXPECT_LT(pool.pooled() - pooled0, 2500u);
  const uint64_t releases0 = pool.releases();
  Bytes too_big;
  too_big.reserve(1 << 20);
  pool.Release(std::move(too_big));  // larger than any pooled buffer may be
  EXPECT_EQ(pool.releases(), releases0);
  for (Bytes& b : held) {
    pool.Release(std::move(b));
  }
}

TEST(BufferPool, WriterDrawsFromThePool) {
  {
    ByteWriter warm;
    warm.Blob(Bytes(2000, 1));
    PayloadPtr p = MakePayload(warm.Take());
  }
  BufferPool& pool = BufferPool::Get();
  uint64_t reuses0 = pool.reuses();
  ByteWriter w;  // default ctor acquires from the pool
  EXPECT_EQ(pool.reuses(), reuses0 + 1);
  w.U32(5);
  Bytes out = w.Take();
  EXPECT_EQ(out.size(), 4u);
}

TEST(Task, InvokesInlineAndHeapCallables) {
  int hits = 0;
  Task small([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(small));
  small();
  EXPECT_EQ(hits, 1);

  // Force the heap path with a capture larger than the inline buffer.
  struct Big {
    unsigned char pad[Task::kInlineBytes + 32] = {};
    int* counter = nullptr;
  };
  Big big;
  big.counter = &hits;
  Task large([big] { ++*big.counter; });
  large();
  EXPECT_EQ(hits, 2);
}

TEST(Task, MoveTransfersOwnershipExactlyOnce) {
  auto counted = std::make_shared<int>(0);
  Task a([counted] { ++*counted; });
  EXPECT_EQ(counted.use_count(), 2);  // one in the task
  Task b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(counted.use_count(), 2);  // still exactly one task-held copy
  b();
  EXPECT_EQ(*counted, 1);
  Task c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counted, 2);
  EXPECT_DEATH(b(), "empty MoveFn");
}

}  // namespace
}  // namespace auragen
