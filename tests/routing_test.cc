// Unit tests for the routing table (§7.4.1) and the NativeBody page-diff
// machinery that system servers sync through.

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/core/routing.h"
#include "src/kernel/native_body.h"

namespace auragen {
namespace {

const Gpid kA = Gpid::Make(0, 10);
const Gpid kB = Gpid::Make(1, 11);
const ChannelId kCh1{100};
const ChannelId kCh2{200};

TEST(RoutingTable, PrimaryAndBackupEntriesAreDistinct) {
  RoutingTable table;
  RoutingEntry& primary = table.Create(kCh1, kA, /*backup=*/false);
  RoutingEntry& backup = table.Create(kCh1, kA, /*backup=*/true);
  primary.reads_since_sync = 5;
  backup.writes_since_sync = 3;
  EXPECT_EQ(table.Find(kCh1, kA, false)->reads_since_sync, 5u);
  EXPECT_EQ(table.Find(kCh1, kA, true)->writes_since_sync, 3u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(RoutingTable, BothEndsOfAChannelCanShareACluster) {
  RoutingTable table;
  table.Create(kCh1, kA, false);
  table.Create(kCh1, kB, false);
  EXPECT_NE(table.Find(kCh1, kA, false), table.Find(kCh1, kB, false));
}

TEST(RoutingTable, FindMissReturnsNull) {
  RoutingTable table;
  EXPECT_EQ(table.Find(kCh1, kA, false), nullptr);
  table.Create(kCh1, kA, false);
  EXPECT_EQ(table.Find(kCh2, kA, false), nullptr);
  EXPECT_EQ(table.Find(kCh1, kB, false), nullptr);
  EXPECT_EQ(table.Find(kCh1, kA, true), nullptr);
}

TEST(RoutingTable, EntriesOfFiltersByOwnerAndRole) {
  RoutingTable table;
  table.Create(kCh1, kA, false);
  table.Create(kCh2, kA, false);
  table.Create(kCh1, kB, false);
  table.Create(kCh2, kA, true);
  EXPECT_EQ(table.EntriesOf(kA, false).size(), 2u);
  EXPECT_EQ(table.EntriesOf(kA, true).size(), 1u);
  EXPECT_EQ(table.EntriesOf(kB, false).size(), 1u);
}

TEST(RoutingTable, RemoveAllOfErasesOnlyTheRole) {
  RoutingTable table;
  table.Create(kCh1, kA, false);
  table.Create(kCh2, kA, false);
  table.Create(kCh1, kA, true);
  table.RemoveAllOf(kA, false);
  EXPECT_EQ(table.EntriesOf(kA, false).size(), 0u);
  EXPECT_EQ(table.EntriesOf(kA, true).size(), 1u);
}

TEST(RoutingTable, CreateReplacesStaleEntry) {
  RoutingTable table;
  RoutingEntry& e1 = table.Create(kCh1, kA, false);
  e1.queue.push_back(QueuedMsg{});
  RoutingEntry& e2 = table.Create(kCh1, kA, false);
  EXPECT_TRUE(e2.queue.empty());
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTable, ForEachVisitsEverything) {
  RoutingTable table;
  table.Create(kCh1, kA, false);
  table.Create(kCh2, kB, true);
  int visited = 0;
  table.ForEach([&](RoutingEntry&) { ++visited; });
  EXPECT_EQ(visited, 2);
}

// The indexes behind Find / EntriesOf / RemoveAllOf must agree with a plain
// ordered map through any sequence of creates and removals, and visit
// entries in that map's (channel, owner, role) order.
TEST(RoutingTable, IndexesMatchOrderedModelUnderRandomChurn) {
  using ModelKey = std::tuple<uint64_t, uint64_t, bool>;  // channel, owner, role
  std::map<ModelKey, uint64_t> model;                       // -> tag
  RoutingTable table;
  Rng rng(20260);
  const std::vector<Gpid> owners = {Gpid::Make(0, 1), Gpid::Make(0, 2), Gpid::Make(1, 1),
                                    Gpid::Make(3, 9), Gpid::Make(7, 4)};
  constexpr uint64_t kChannels = 12;
  uint64_t next_tag = 1;

  auto check = [&] {
    ASSERT_EQ(table.size(), model.size());
    std::vector<ModelKey> visited;
    table.ForEach([&](RoutingEntry& e) {
      visited.emplace_back(e.channel.value, e.owner.value, e.backup_entry);
    });
    std::vector<ModelKey> expected;
    for (const auto& [key, tag] : model) expected.push_back(key);
    ASSERT_EQ(visited, expected);
    for (const Gpid owner : owners) {
      for (const bool backup : {false, true}) {
        std::vector<uint64_t> got;
        for (const RoutingEntry* e : table.EntriesOf(owner, backup)) {
          EXPECT_EQ(e->owner, owner);
          EXPECT_EQ(e->backup_entry, backup);
          got.push_back(e->channel.value);
        }
        std::vector<uint64_t> want;
        for (const auto& [key, tag] : model) {
          if (std::get<1>(key) == owner.value && std::get<2>(key) == backup) {
            want.push_back(std::get<0>(key));
          }
        }
        ASSERT_EQ(got, want);
        for (uint64_t ch = 1; ch <= kChannels; ++ch) {
          const RoutingEntry* e = std::as_const(table).Find(ChannelId{ch}, owner, backup);
          auto it = model.find(ModelKey{ch, owner.value, backup});
          if (it == model.end()) {
            ASSERT_EQ(e, nullptr);
          } else {
            ASSERT_NE(e, nullptr);
            ASSERT_EQ(e->writes_total, it->second);
            ASSERT_EQ(e, table.Find(ChannelId{ch}, owner, backup));
          }
        }
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const ChannelId ch{rng.Range(1, kChannels)};
    const Gpid owner = owners[rng.Below(owners.size())];
    const bool backup = rng.Chance(0.5);
    const uint64_t dice = rng.Below(10);
    if (dice < 6) {
      // Create (possibly replacing a stale entry under the same key).
      RoutingEntry& e = table.Create(ch, owner, backup);
      e.writes_total = next_tag;
      model[ModelKey{ch.value, owner.value, backup}] = next_tag++;
    } else if (dice < 9) {
      table.Remove(ch, owner, backup);
      model.erase(ModelKey{ch.value, owner.value, backup});
    } else {
      table.RemoveAllOf(owner, backup);
      for (auto it = model.begin(); it != model.end();) {
        if (std::get<1>(it->first) == owner.value && std::get<2>(it->first) == backup) {
          it = model.erase(it);
        } else {
          ++it;
        }
      }
    }
    check();
    if (HasFatalFailure()) {
      FAIL() << "diverged at step " << step;
    }
  }
  // The table survives a move with its indexes intact (Kernel resets its
  // table by move-assignment).
  RoutingTable moved = std::move(table);
  table = std::move(moved);
  check();
}

// ----------------------------- NativeBody page-diff sync (system servers)

class CounterProgram : public NativeProgram {
 public:
  SyscallRequest Next(const SyscallResult&, bool) override {
    ++counter_;
    SyscallRequest req;
    req.num = Sys::kRead;
    req.a = kAnyChannel;
    return req;
  }
  void SerializeState(ByteWriter& w) const override {
    w.U64(counter_);
    w.Blob(blob_);
  }
  void RestoreState(ByteReader& r) override {
    counter_ = r.U64();
    blob_ = r.Blob();
  }
  uint64_t counter_ = 0;
  Bytes blob_;
};

TEST(NativeBodyPaging, DirtyPagesTrackStateChanges) {
  auto program = std::make_unique<CounterProgram>();
  CounterProgram* p = program.get();
  p->counter_ = 7;  // all-zero state would (correctly) ship nothing
  NativeBody body(std::move(program), /*paged_ft=*/true);
  std::vector<PageNum> dirty = body.DirtyPages();
  EXPECT_FALSE(dirty.empty());
  for (PageNum page : dirty) {
    (void)body.PageContent(page);
  }
  body.ClearDirty();
  EXPECT_TRUE(body.DirtyPages().empty());

  // A state change re-dirties exactly the affected chunk(s).
  p->counter_ = 999;
  dirty = body.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0u);
}

TEST(NativeBodyPaging, GrowthAddsChunks) {
  auto program = std::make_unique<CounterProgram>();
  CounterProgram* p = program.get();
  NativeBody body(std::move(program), /*paged_ft=*/true);
  body.DirtyPages();
  body.ClearDirty();
  p->blob_ = Bytes(3 * kAvmPageBytes, 0xEE);
  std::vector<PageNum> dirty = body.DirtyPages();
  EXPECT_GE(dirty.size(), 3u);
}

TEST(NativeBodyPaging, RestoreRebuildsFromInstalledChunks) {
  auto program = std::make_unique<CounterProgram>();
  CounterProgram* p = program.get();
  NativeBody body(std::move(program), /*paged_ft=*/true);
  p->counter_ = 1234;
  p->blob_ = Bytes(100, 0x1);
  std::vector<PageNum> dirty = body.DirtyPages();
  std::vector<Bytes> chunks;
  for (PageNum page : dirty) {
    chunks.push_back(body.PageContent(page));
  }
  body.ClearDirty();
  Bytes context = body.CaptureContext();

  auto program2 = std::make_unique<CounterProgram>();
  CounterProgram* p2 = program2.get();
  NativeBody restored(std::move(program2), /*paged_ft=*/true);
  restored.RestoreContext(context);
  restored.EvictAllPages();
  EXPECT_TRUE(restored.NeedsServerPaging());
  // The first Run faults each chunk in order.
  for (size_t i = 0; i < chunks.size(); ++i) {
    BodyRun run = restored.Run(100);
    ASSERT_EQ(run.kind, BodyRun::Kind::kPageFault);
    EXPECT_EQ(run.fault_page, i);
    restored.InstallPage(run.fault_page, /*known=*/true, chunks[i]);
  }
  BodyRun run = restored.Run(100);
  EXPECT_EQ(run.kind, BodyRun::Kind::kSyscall);
  EXPECT_EQ(p2->counter_, 1235u);  // restored 1234, one Next() since
  EXPECT_EQ(p2->blob_, Bytes(100, 0x1));
}

TEST(NativeBodyPaging, PeripheralBodiesReportNoDirtyPages) {
  NativeBody body(std::make_unique<CounterProgram>(), /*paged_ft=*/false);
  EXPECT_TRUE(body.DirtyPages().empty());
}

}  // namespace
}  // namespace auragen
