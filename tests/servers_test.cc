// Unit tests for the server state machines, driven through ProgramHarness
// (no machine, no kernels): the page server's copy-on-sync accounts and
// op-log replay, the file server's shadow-block filesystem and channel
// pairing, the tty server's sequencing and bindings, and the process
// server's time/alarm/signal hub.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/paging/page_server.h"
#include "src/servers/file_server.h"
#include "src/servers/process_server.h"
#include "src/servers/tty_server.h"
#include "tests/program_harness.h"

namespace auragen {
namespace {

const Gpid kUser = Gpid::Make(1, 42);
constexpr uint64_t kChan = 0x1000000000007ull;

// ------------------------------------------------------------- page server

Bytes PageWriteMsg(Gpid pid, PageNum page, uint8_t fill) {
  PageWriteBody body;
  body.pid = pid;
  body.page = page;
  body.content = Bytes(kAvmPageBytes, fill);
  return body.Encode();
}

Bytes SyncMsg(Gpid pid) {
  SyncRecord record;
  record.pid = pid;
  record.sync_seq = 1;
  return record.Encode();
}

TEST(PageServer, WriteGoesToPrimaryAccountOnly) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 3, 0xAA));
  h.Drain();
  EXPECT_TRUE(ps.PrimaryHasPage(kUser, 3));
  EXPECT_FALSE(ps.BackupHasPage(kUser, 3));
  // Staged, not written: one page waits for the idle timer it armed.
  EXPECT_EQ(ps.staged_pages(), 1u);
  EXPECT_EQ(h.disk_writes, 0u);
  ASSERT_EQ(h.timers.size(), 1u);
  EXPECT_EQ(h.timers[0].first, PageServerProgram::kIdleFlushUs);
  h.Idle();
  EXPECT_EQ(ps.staged_pages(), 0u);
  EXPECT_EQ(h.disk_writes, 1u);
  EXPECT_EQ(h.disk_write_batches, 1u);
  EXPECT_EQ(h.disk.at(ps.BlockOf(kUser, 3, /*backup=*/false)), Bytes(kAvmPageBytes, 0xAA));
}

TEST(PageServer, SyncCopiesAccountSharingBlocks) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 3, 0xAA));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  h.Drain();
  EXPECT_TRUE(ps.BackupHasPage(kUser, 3));
  // §7.8: "After a sync, only one copy of each page will exist" — one block
  // backs both accounts.
  EXPECT_EQ(ps.blocks_in_use(), 1u);
  // A newer version splits the copies (two blocks), next sync re-merges.
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 3, 0xBB));
  h.Deliver();
  EXPECT_EQ(ps.blocks_in_use(), 2u);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  h.Deliver();
  EXPECT_EQ(ps.blocks_in_use(), 1u);
}

TEST(PageServer, RequestServedFromBackupAccount) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 5, 0x11));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  // Newer un-synced version must NOT be served to a recovering backup.
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 5, 0x22));
  PageRequestBody req;
  req.pid = kUser;
  req.page = 5;
  req.cookie = 77;
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageRequest, req.Encode());
  h.Drain();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].kind, 3u);  // kPageReply
  PageReplyBody reply = PageReplyBody::Decode(h.sent[0].payload);
  EXPECT_TRUE(reply.known);
  EXPECT_EQ(reply.cookie, 77u);
  ASSERT_FALSE(reply.content.empty());
  EXPECT_EQ(reply.content[0], 0x11);  // last-sync version, not 0x22
}

TEST(PageServer, UnknownPageRepliesZeroFill) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  PageRequestBody req;
  req.pid = kUser;
  req.page = 9;
  req.cookie = 5;
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageRequest, req.Encode());
  h.Drain();
  ASSERT_EQ(h.sent.size(), 1u);
  PageReplyBody reply = PageReplyBody::Decode(h.sent[0].payload);
  EXPECT_FALSE(reply.known);
}

TEST(PageServer, ServerSyncOpsReplayRebuildsMirror) {
  PageServerOptions options;
  options.sync_every_ops = 3;
  PageServerProgram primary(options);
  ProgramHarness h(primary);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 1, 1));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 2, 2));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  h.Drain();
  // The three ops wait behind the staged pages; the ServerSync follows the
  // group write that makes them durable.
  EXPECT_TRUE(h.server_syncs.empty());
  h.Idle();
  ASSERT_EQ(h.server_syncs.size(), 1u);

  // Backup applies the op log and mirrors the accounts.
  PageServerProgram backup(options);
  ByteReader r(h.server_syncs[0]);
  ServerSyncPrefix::Deserialize(r);  // trim prefix consumed by the kernel
  backup.ApplyServerSync(r);
  EXPECT_TRUE(backup.PrimaryHasPage(kUser, 1));
  EXPECT_TRUE(backup.BackupHasPage(kUser, 2));
  EXPECT_EQ(backup.blocks_in_use(), primary.blocks_in_use());
}

// Test-local model of the page server's accounts with a full account copy
// at every sync: the reference the incremental copy must reproduce.
struct PageStoreModel {
  explicit PageStoreModel(BlockNum first_block) : next_block(first_block) {}
  BlockNum Alloc() {
    if (!free_list.empty()) {
      BlockNum b = free_list.back();
      free_list.pop_back();
      return b;
    }
    return next_block++;
  }
  void Release(BlockNum block) {
    if (--refcount[block] == 0) {
      refcount.erase(block);
      free_list.push_back(block);
    }
  }
  BlockNum Write(Gpid pid, PageNum page) {
    const BlockNum block = Alloc();
    auto& acct = primary[pid.value];
    if (auto it = acct.find(page); it != acct.end()) {
      Release(it->second);
    }
    acct[page] = block;
    refcount[block]++;
    return block;
  }
  void Sync(Gpid pid) {
    auto& b = backup[pid.value];
    for (const auto& [page, block] : b) {
      Release(block);
    }
    b = primary[pid.value];
    for (const auto& [page, block] : b) {
      refcount[block]++;
    }
  }
  bool Has(const std::map<uint64_t, std::map<PageNum, BlockNum>>& accounts, Gpid pid,
           PageNum page) const {
    auto it = accounts.find(pid.value);
    return it != accounts.end() && it->second.count(page) != 0;
  }

  std::map<uint64_t, std::map<PageNum, BlockNum>> primary;
  std::map<uint64_t, std::map<PageNum, BlockNum>> backup;
  std::map<BlockNum, uint32_t> refcount;
  std::vector<BlockNum> free_list;
  BlockNum next_block;
};

TEST(PageServer, IncrementalCopyMatchesFullCopyModel) {
  const std::vector<Gpid> pids = {Gpid::Make(1, 40), Gpid::Make(2, 41), Gpid::Make(3, 42)};
  constexpr PageNum kPages = 10;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 7919);
    PageServerOptions options;
    options.sync_every_ops = 4;
    auto ps = std::make_unique<PageServerProgram>(options);
    auto h = std::make_unique<ProgramHarness>(*ps);
    h->Drain();  // parked in read-any
    PageStoreModel model(options.first_block);
    std::map<BlockNum, int> content_step;  // what each model block must hold
    // Once every staged image has landed, each block an account references
    // holds the content its write shipped.
    auto check_disk = [&] {
      h->Idle();
      ASSERT_EQ(ps->staged_pages(), 0u);
      for (const auto* accounts : {&model.primary, &model.backup}) {
        for (const auto& [pid, pages] : *accounts) {
          for (const auto& [page, block] : pages) {
            ASSERT_EQ(h->disk.count(block), 1u) << "block " << block;
            EXPECT_EQ(h->disk[block][0] | (h->disk[block][1] << 8),
                      content_step.at(block) & 0xffff);
          }
        }
      }
    };
    // The op log the server must ship: (op, pid, page, block).
    std::vector<std::tuple<uint8_t, uint64_t, uint32_t, uint32_t>> want_ops;
    std::vector<std::tuple<uint8_t, uint64_t, uint32_t, uint32_t>> got_ops;
    size_t syncs_seen = 0;
    auto collect_ops = [&] {
      for (; syncs_seen < h->server_syncs.size(); ++syncs_seen) {
        ByteReader r(h->server_syncs[syncs_seen]);
        ServerSyncPrefix::Deserialize(r);
        r.U64();  // durable point
        Bytes ops = r.Blob();
        ByteReader o(ops);
        while (!o.done()) {
          const uint8_t op = o.U8();
          const uint64_t pid = o.U64();
          uint32_t page = 0;
          uint32_t block = 0;
          if (op == 1) {
            page = o.U32();
            block = o.U32();
          }
          got_ops.emplace_back(op, pid, page, block);
        }
      }
    };
    for (int step = 0; step < 400; ++step) {
      const Gpid pid = pids[rng.Below(pids.size())];
      const uint64_t dice = rng.Below(20);
      if (dice < 12) {
        const PageNum page = static_cast<PageNum>(rng.Below(kPages));
        PageWriteBody body;
        body.pid = pid;
        body.page = page;
        body.content = Bytes(kAvmPageBytes, 0);
        body.content[0] = static_cast<uint8_t>(step);
        body.content[1] = static_cast<uint8_t>(step >> 8);
        h->Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, body.Encode());
        h->Deliver();
        const BlockNum block = model.Write(pid, page);
        want_ops.emplace_back(1, pid.value, page, block);
        content_step[block] = step;
        ASSERT_EQ(ps->BlockOf(pid, page, /*backup=*/false), block) << "step " << step;
      } else if (dice < 18) {
        h->Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(pid));
        h->Deliver();
        model.Sync(pid);
        want_ops.emplace_back(2, pid.value, 0, 0);
      } else {
        // Serialize -> restore: the restored server carries on.
        if (dice == 19) {
          check_disk();
        }
        collect_ops();
        ByteWriter w;
        ps->SerializeState(w);
        auto restored = std::make_unique<PageServerProgram>(options);
        ByteReader r(w.bytes());
        restored->RestoreState(r);
        auto h2 = std::make_unique<ProgramHarness>(*restored);
        h2->disk = h->disk;
        // A peripheral server resumes from a restore with a fresh start.
        h2->Drain();
        h = std::move(h2);
        ps = std::move(restored);
        syncs_seen = 0;
      }
      ASSERT_EQ(ps->blocks_in_use(), model.refcount.size()) << "step " << step;
      for (const Gpid p : pids) {
        for (PageNum page = 0; page < kPages; ++page) {
          ASSERT_EQ(ps->PrimaryHasPage(p, page), model.Has(model.primary, p, page));
          ASSERT_EQ(ps->BackupHasPage(p, page), model.Has(model.backup, p, page));
        }
      }
    }
    check_disk();
    collect_ops();
    ASSERT_FALSE(got_ops.empty());
    ASSERT_LE(got_ops.size(), want_ops.size());
    for (size_t i = 0; i < got_ops.size(); ++i) {
      ASSERT_EQ(got_ops[i], want_ops[i]) << "op " << i;
    }
  }
}

TEST(PageServer, StateSerializationRoundTrip) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 1, 0x5A));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  h.Drain();
  ASSERT_EQ(ps.staged_pages(), 1u);  // serialized with its image staged
  ByteWriter w;
  ps.SerializeState(w);
  PageServerProgram restored(PageServerOptions{});
  ByteReader r(w.bytes());
  restored.RestoreState(r);
  EXPECT_TRUE(restored.BackupHasPage(kUser, 1));
  EXPECT_EQ(restored.staged_pages(), 1u);
  ByteWriter w2;
  restored.SerializeState(w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
  // The restored server answers from the staged image, then writes it.
  ProgramHarness h2(restored);
  h2.Drain();
  PageRequestBody req;
  req.pid = kUser;
  req.page = 1;
  h2.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageRequest, req.Encode());
  h2.Deliver();
  ASSERT_EQ(h2.sent.size(), 1u);
  EXPECT_EQ(PageReplyBody::Decode(h2.sent[0].payload).content, Bytes(kAvmPageBytes, 0x5A));
  h2.Idle();
  EXPECT_EQ(restored.staged_pages(), 0u);
  EXPECT_EQ(h2.disk.at(restored.BlockOf(kUser, 1, /*backup=*/true)),
            Bytes(kAvmPageBytes, 0x5A));
}

TEST(PageServer, BurstOfWritesIsOneGroupWrite) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  for (PageNum page = 0; page < 40; ++page) {
    h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite,
           PageWriteMsg(kUser, page, static_cast<uint8_t>(page)));
  }
  h.Drain();
  // Consumed without waiting for the disk; written once the queue ran dry.
  EXPECT_EQ(h.disk_write_batches, 1u);
  EXPECT_EQ(h.disk_writes, 40u);
  EXPECT_EQ(ps.staged_pages(), 0u);
  for (PageNum page = 0; page < 40; ++page) {
    EXPECT_EQ(h.disk.at(ps.BlockOf(kUser, page, /*backup=*/false)),
              Bytes(kAvmPageBytes, static_cast<uint8_t>(page)));
  }
  // A longer burst splits into full batches.
  for (PageNum page = 0; page < 2 * PageServerProgram::kMaxBatchPages + 8; ++page) {
    h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite,
           PageWriteMsg(kUser, 100 + page, 1));
  }
  h.Deliver();
  EXPECT_EQ(h.disk_write_batches, 3u);
  // The last few are too few to pay for a seek: they wait for the timer.
  EXPECT_EQ(ps.staged_pages(), 8u);
  h.Idle();
  EXPECT_EQ(h.disk_write_batches, 4u);
  EXPECT_EQ(ps.staged_pages(), 0u);
}

TEST(PageServer, RequestAnsweredFromStagedImage) {
  PageServerProgram ps(PageServerOptions{});
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 5, 0x11));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  PageRequestBody req;
  req.pid = kUser;
  req.page = 5;
  req.cookie = 9;
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageRequest, req.Encode());
  h.Drain();
  // Answered before its batch landed, from memory.
  EXPECT_EQ(h.disk_writes, 0u);
  EXPECT_EQ(h.disk_reads, 0u);
  ASSERT_EQ(h.sent.size(), 1u);
  PageReplyBody reply = PageReplyBody::Decode(h.sent[0].payload);
  EXPECT_TRUE(reply.known);
  EXPECT_EQ(reply.cookie, 9u);
  EXPECT_EQ(reply.content, Bytes(kAvmPageBytes, 0x11));
  // Once landed, the same request is read back from disk.
  h.Idle();
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageRequest, req.Encode());
  h.Deliver();
  EXPECT_EQ(h.disk_reads, 1u);
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(PageReplyBody::Decode(h.sent[1].payload).content, Bytes(kAvmPageBytes, 0x11));
}

// Sums a ServerSync's trim counts and returns its durable point.
uint64_t TrimmedBy(const Bytes& sync, uint32_t* trimmed) {
  ByteReader r(sync);
  ServerSyncPrefix prefix = ServerSyncPrefix::Deserialize(r);
  for (const auto& [chan, count] : prefix.serviced) {
    *trimmed += count;
  }
  return r.U64();
}

TEST(PageServer, ServerSyncNeverTrimsStagedWrites) {
  PageServerOptions options;
  options.sync_every_ops = 1;
  PageServerProgram ps(options);
  ProgramHarness h(ps);
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, PageWriteMsg(kUser, 1, 1));
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(kUser));
  PageRequestBody req;
  req.pid = kUser;
  req.page = 1;
  h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageRequest, req.Encode());
  h.Drain();
  // All three consumed and the request answered, but the write is only
  // staged: nothing may be trimmed, not even what followed it.
  EXPECT_EQ(h.sent.size(), 1u);
  EXPECT_TRUE(h.server_syncs.empty());
  h.Idle();
  // Durable now: the write and the sync each complete a ServerSync's op
  // count (the request rides along with the next one).
  uint32_t trimmed = 0;
  uint64_t durable = 0;
  for (const Bytes& sync : h.server_syncs) {
    durable = TrimmedBy(sync, &trimmed);
  }
  EXPECT_EQ(h.server_syncs.size(), 2u);
  EXPECT_EQ(trimmed, 2u);
  EXPECT_EQ(durable, 2u);
}

// A backup instance applying every ServerSync at the moment it is sent
// must only ever reference blocks whose content reached the disk: random
// writes over a few hot pages with syncs in between supersede staged
// images, which are dropped unwritten.
TEST(PageServer, MirrorReferencesOnlyDurableBlocks) {
  const std::vector<Gpid> pids = {Gpid::Make(1, 40), Gpid::Make(2, 41)};
  size_t total_partial = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 104729);
    PageServerOptions options;
    options.sync_every_ops = static_cast<uint32_t>(1 + rng.Below(4));
    PageServerProgram ps(options);
    ProgramHarness h(ps);
    PageServerProgram mirror(options);
    std::vector<Bytes> shipped;        // page write images, in push order
    size_t applied_writes = 0;         // kWrite ops the mirror has applied
    std::map<BlockNum, Bytes> expect;  // what the mirror's ops put in a block
    Bytes held;                        // ops of partial syncs, not applied yet
    size_t partial_syncs = 0;
    h.on_server_sync = [&](const Bytes& sync) {
      ByteReader r(sync);
      ServerSyncPrefix prefix = ServerSyncPrefix::Deserialize(r);
      ByteReader peek(sync);
      ServerSyncPrefix::Deserialize(peek);
      const bool partial = peek.U64() == ~uint64_t{0};
      const Bytes ops = peek.Blob();
      held.insert(held.end(), ops.begin(), ops.end());
      mirror.ApplyServerSync(r);
      if (partial) {
        // Nothing applied and nothing trimmed until the prefix may end.
        EXPECT_TRUE(prefix.serviced.empty());
        ++partial_syncs;
        return;
      }
      ByteReader o(held);
      while (!o.done()) {
        const uint8_t op = o.U8();
        o.U64();
        if (op == 1) {
          o.U32();
          expect[o.U32()] = shipped.at(applied_writes++);
        }
      }
      held.clear();
      for (BlockNum block : mirror.ReferencedBlocks()) {
        const auto& history = h.disk_history[block];
        ASSERT_NE(std::find(history.begin(), history.end(), expect.at(block)), history.end())
            << "mirror references block " << block << " before its content is on disk";
      }
    };
    h.Drain();
    for (int step = 0; step < 600; ++step) {
      const Gpid pid = pids[rng.Below(pids.size())];
      const uint64_t dice = rng.Below(10);
      if (dice < 6) {
        Bytes image(kAvmPageBytes, 0);
        image[0] = static_cast<uint8_t>(step);
        image[1] = static_cast<uint8_t>(step >> 8);
        shipped.push_back(image);
        PageWriteBody body;
        body.pid = pid;
        body.page = static_cast<PageNum>(rng.Below(3));
        body.content = image;
        h.Push(kChan, kUser, kBindPageChannel, MsgKind::kPageWrite, body.Encode());
      } else if (dice < 9) {
        h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(pid));
      } else {
        h.Idle();
        continue;
      }
      // Deliver in bursts, so that images stay staged across syncs.
      if (rng.Below(4) == 0) {
        h.Deliver();
      }
    }
    h.Push(kChan, kUser, kBindPageChannel, MsgKind::kSync, SyncMsg(pids[0]));
    h.Deliver();
    h.Idle();
    EXPECT_EQ(ps.staged_pages(), 0u);
    EXPECT_LT(h.disk_writes, shipped.size());  // some images were dropped
    EXPECT_GT(h.server_syncs.size(), partial_syncs);
    total_partial += partial_syncs;
  }
  EXPECT_GT(total_partial, 0u);  // the seeds exercise held ops
}

// ------------------------------------------------------------- file server

Bytes OpenMsg(const std::string& name, uint64_t cookie = 1) {
  OpenRequest open;
  open.cookie = cookie;
  open.name = name;
  open.opener = kUser;
  open.opener_cluster = 1;
  open.opener_backup = 0;
  return open.Encode();
}

struct FsFixture {
  FileServerProgram fs{FileServerOptions{}};
  ProgramHarness h{fs};
  FsFixture() { h.Drain(); }  // boot: whoami + format

  // Opens `name`, returns the channel id from the reply.
  uint64_t Open(const std::string& name) {
    size_t before = h.sent.size();
    h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg(name));
    h.Deliver();
    AURAGEN_CHECK(h.sent.size() == before + 1);
    OpenReplyBody reply = OpenReplyBody::Decode(h.sent.back().payload);
    AURAGEN_CHECK(reply.status == 0);
    return reply.channel.value;
  }

  void Write(uint64_t chan, const Bytes& data) {
    h.Push(chan, kUser, 0, MsgKind::kUser, EncodeTaggedBlob(ReqTag::kFileWrite, data));
    h.Deliver();
  }

  Bytes Read(uint64_t chan, uint64_t max) {
    size_t before = h.sent.size();
    h.Push(chan, kUser, 0, MsgKind::kUser, EncodeTaggedU64(ReqTag::kFileRead, max));
    h.Deliver();
    AURAGEN_CHECK(h.sent.size() == before + 1);
    ByteReader r(h.sent.back().payload);
    AURAGEN_CHECK(static_cast<ReqTag>(r.U8()) == ReqTag::kData);
    return r.Blob();
  }
};

TEST(FileServer, FormatsVirginDiskWithSuperblock) {
  FsFixture f;
  EXPECT_GE(f.h.disk_writes, 1u);
  EXPECT_TRUE(f.h.disk.count(1) != 0);  // epoch 1 commits to slot 1
}

TEST(FileServer, OpenCreatesFileAndAcceptsChannel) {
  FsFixture f;
  uint64_t chan = f.Open("alpha.txt");
  EXPECT_NE(chan, 0u);
  EXPECT_TRUE(f.fs.HasFile("alpha.txt"));
  ASSERT_EQ(f.h.accepts.size(), 1u);
  EXPECT_EQ(f.h.accepts[0].channel.value, chan);
  EXPECT_EQ(f.h.accepts[0].peer_pid, kUser);
}

TEST(FileServer, WriteThenReadBack) {
  FsFixture f;
  uint64_t chan = f.Open("data.bin");
  Bytes payload(300, 0x5A);  // spans a block boundary
  f.Write(chan, payload);
  EXPECT_EQ(f.fs.FileSize("data.bin"), 300u);
  uint64_t chan2 = f.Open("data.bin");
  Bytes back = f.Read(chan2, 1024);
  EXPECT_EQ(back, payload);
}

TEST(FileServer, AppendsAccumulateAcrossTailBlocks) {
  FsFixture f;
  uint64_t chan = f.Open("log");
  for (int i = 0; i < 5; ++i) {
    f.Write(chan, Bytes(200, static_cast<uint8_t>('a' + i)));
  }
  EXPECT_EQ(f.fs.FileSize("log"), 1000u);
  uint64_t chan2 = f.Open("log");
  Bytes back = f.Read(chan2, 2000);
  ASSERT_EQ(back.size(), 1000u);
  EXPECT_EQ(back[0], 'a');
  EXPECT_EQ(back[399], 'b');
  EXPECT_EQ(back[999], 'e');
}

TEST(FileServer, SequentialReadsAdvanceOffset) {
  FsFixture f;
  uint64_t chan = f.Open("seq");
  Bytes data;
  for (int i = 0; i < 100; ++i) {
    data.push_back(static_cast<uint8_t>(i));
  }
  f.Write(chan, data);
  uint64_t rchan = f.Open("seq");
  Bytes first = f.Read(rchan, 40);
  Bytes second = f.Read(rchan, 40);
  Bytes third = f.Read(rchan, 40);
  Bytes eof = f.Read(rchan, 40);
  EXPECT_EQ(first.size(), 40u);
  EXPECT_EQ(second[0], 40);
  EXPECT_EQ(third.size(), 20u);
  EXPECT_TRUE(eof.empty());
}

TEST(FileServer, ChannelPairingRepliesToBothOpeners) {
  FsFixture f;
  f.h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("ch:duo", 11));
  f.h.Deliver();
  EXPECT_TRUE(f.h.sent.empty());  // first opener waits
  Gpid other = Gpid::Make(0, 17);
  OpenRequest open;
  open.cookie = 22;
  open.name = "ch:duo";
  open.opener = other;
  open.opener_cluster = 0;
  open.opener_backup = 1;
  f.h.Push(kChan + 1, other, kBindFsChannel, MsgKind::kUser, open.Encode());
  f.h.Deliver();
  ASSERT_EQ(f.h.sent.size(), 2u);
  OpenReplyBody to_first = OpenReplyBody::Decode(f.h.sent[0].payload);
  OpenReplyBody to_second = OpenReplyBody::Decode(f.h.sent[1].payload);
  EXPECT_EQ(f.h.sent[0].channel, kChan);      // replies on each control channel
  EXPECT_EQ(f.h.sent[1].channel, kChan + 1);
  EXPECT_EQ(to_first.channel, to_second.channel);  // one shared channel
  EXPECT_EQ(to_first.peer_pid, other);
  EXPECT_EQ(to_second.peer_pid, kUser);
  EXPECT_EQ(to_first.request_cookie, 11u);
  EXPECT_EQ(to_second.request_cookie, 22u);
}

TEST(FileServer, ShadowCommitPreservesOldStateUntilSuperblockFlips) {
  FileServerOptions options;
  options.sync_every_ops = 2;
  FileServerProgram fs(options);
  ProgramHarness h(fs);
  h.Drain();
  // Trigger enough ops for a commit.
  h.Push(kChan, kUser, kBindFsChannel, MsgKind::kUser, OpenMsg("f"));
  h.Deliver();
  OpenReplyBody reply = OpenReplyBody::Decode(h.sent.back().payload);
  h.Push(reply.channel.value, kUser, 0, MsgKind::kUser,
         EncodeTaggedBlob(ReqTag::kFileWrite, Bytes(10, 7)));
  h.Deliver();
  EXPECT_GE(fs.commits(), 2u);  // format + at least one shadow commit
  ASSERT_GE(h.server_syncs.size(), 1u);

  // A fresh instance booted from the same disk + runtime opaque reads the
  // file back — the §7.9 dual-ported-disk recovery path.
  FileServerProgram recovered(options);
  {
    ByteReader r(h.server_syncs.back());
    ServerSyncPrefix::Deserialize(r);
    recovered.ApplyServerSync(r);
  }
  ProgramHarness h2(recovered);
  h2.disk = h.disk;  // the dual-ported disk
  h2.Drain();        // boots from the committed superblock
  EXPECT_TRUE(recovered.HasFile("f"));
  EXPECT_EQ(recovered.FileSize("f"), 10u);
}

// -------------------------------------------------------------- tty server

TEST(TtyServer, BindThenInputForwardsToSession) {
  TtyServerProgram tty(TtyServerOptions{});
  ProgramHarness h(tty);
  h.Push(kChan, kUser, kBindTtyLineBase + 0, MsgKind::kUser, EncodeTagged(ReqTag::kTtyBind));
  h.Drain();
  ByteWriter in;
  in.U8(static_cast<uint8_t>(ReqTag::kDevInput));
  in.U32(0);
  in.Blob(Bytes{'h', 'i'});
  h.Push(99, kUser, kBindSelfChannel, MsgKind::kUser, in.Take());
  h.Deliver();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].channel, kChan);
  ByteReader r(h.sent[0].payload);
  EXPECT_EQ(static_cast<ReqTag>(r.U8()), ReqTag::kTtyInput);
  EXPECT_EQ(r.Blob(), (Bytes{'h', 'i'}));
}

TEST(TtyServer, OutputsCarryMonotonicSequence) {
  TtyServerProgram tty(TtyServerOptions{});
  ProgramHarness h(tty);
  for (int i = 0; i < 3; ++i) {
    h.Push(kChan, kUser, kBindTtyLineBase + 2, MsgKind::kUser,
           EncodeTaggedBlob(ReqTag::kTtyWrite, Bytes{static_cast<uint8_t>('0' + i)}));
  }
  h.Drain();
  ASSERT_EQ(h.tty_emits.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    ByteReader r(h.tty_emits[i]);
    EXPECT_EQ(r.U32(), 2u);      // line
    EXPECT_EQ(r.U64(), i + 1);   // seq
  }
}

TEST(TtyServer, CtrlCRoutesSignalThroughProcServer) {
  TtyServerProgram tty(TtyServerOptions{});
  ProgramHarness h(tty);
  h.find_chan[kBindProcChannel] = 555;
  h.Push(kChan, kUser, kBindTtyLineBase + 0, MsgKind::kUser, EncodeTagged(ReqTag::kTtyBind));
  h.Drain();
  ByteWriter in;
  in.U8(static_cast<uint8_t>(ReqTag::kDevInput));
  in.U32(0);
  in.Blob(Bytes{0x03});
  h.Push(99, kUser, kBindSelfChannel, MsgKind::kUser, in.Take());
  h.Deliver();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].channel, 555u);
  ByteReader r(h.sent[0].payload);
  EXPECT_EQ(static_cast<ReqTag>(r.U8()), ReqTag::kSignalReq);
  Gpid target;
  target.value = r.U64();
  EXPECT_EQ(target, kUser);
  EXPECT_EQ(r.U32(), kSigInt);
}

TEST(TtyServer, ServerSyncCarriesBindingsAndSeqs) {
  TtyServerOptions options;
  options.sync_every_ops = 1;
  TtyServerProgram tty(options);
  ProgramHarness h(tty);
  h.Push(kChan, kUser, kBindTtyLineBase + 1, MsgKind::kUser,
         EncodeTaggedBlob(ReqTag::kTtyWrite, Bytes{'x'}));
  h.Drain();
  ASSERT_GE(h.server_syncs.size(), 1u);
  TtyServerProgram backup(options);
  ByteReader r(h.server_syncs.back());
  ServerSyncPrefix prefix = ServerSyncPrefix::Deserialize(r);
  backup.ApplyServerSync(r);
  ASSERT_EQ(prefix.serviced.size(), 1u);
  EXPECT_EQ(prefix.serviced[0].first.value, kChan);
  // The mirrored backup continues the sequence where the primary left off.
  ProgramHarness h2(backup);
  h2.Push(kChan, kUser, kBindTtyLineBase + 1, MsgKind::kUser,
          EncodeTaggedBlob(ReqTag::kTtyWrite, Bytes{'y'}));
  h2.Drain();
  ASSERT_EQ(h2.tty_emits.size(), 1u);
  ByteReader e(h2.tty_emits[0]);
  e.U32();
  EXPECT_EQ(e.U64(), 2u);  // continues after the primary's seq 1
}

// ---------------------------------------------------------- process server

TEST(ProcessServer, TimeRequestRepliesSimTime) {
  ProcessServerProgram ps;
  ProgramHarness h(ps);
  h.now = 123456;
  h.Push(kChan, kUser, kBindProcChannel, MsgKind::kUser, EncodeTagged(ReqTag::kTime));
  h.Drain();
  ASSERT_EQ(h.sent.size(), 1u);
  ByteReader r(h.sent[0].payload);
  EXPECT_EQ(static_cast<ReqTag>(r.U8()), ReqTag::kTime64);
  EXPECT_EQ(r.U64(), 123456u);
}

TEST(ProcessServer, AlarmArmsTimerAndFiresSignal) {
  ProcessServerProgram ps;
  ProgramHarness h(ps);
  h.find_chan[kBindSignalChannel] = 777;
  h.Push(kChan, kUser, kBindProcChannel, MsgKind::kUser,
         EncodeTaggedU64(ReqTag::kAlarm, 5000));
  h.Drain();
  ASSERT_EQ(h.timers.size(), 1u);
  EXPECT_EQ(h.timers[0].first, 5000u);
  EXPECT_EQ(ps.pending_alarms(), 1u);

  // Timer fires: SIGALRM emitted on the requester's signal channel.
  h.Push(99, Gpid::Make(31, 1), kBindSelfChannel, MsgKind::kUser,
         EncodeTaggedU64(ReqTag::kTimerFire, h.timers[0].second));
  h.Deliver();
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].channel, 777u);
  EXPECT_EQ(h.sent[0].kind, 2u);  // kSignal
  EXPECT_EQ(ps.pending_alarms(), 0u);
}

TEST(ProcessServer, RestoreRearmsPendingAlarms) {
  ProcessServerProgram ps;
  ProgramHarness h(ps);
  h.now = 10'000;
  h.Push(kChan, kUser, kBindProcChannel, MsgKind::kUser,
         EncodeTaggedU64(ReqTag::kAlarm, 50'000));
  h.Drain();

  ByteWriter w;
  ps.SerializeState(w);
  ProcessServerProgram restored;
  ByteReader r(w.bytes());
  restored.RestoreState(r);
  EXPECT_TRUE(restored.WantsRunAfterRestore());
  ProgramHarness h2(restored);
  h2.MarkRestored();
  h2.now = 30'000;  // 20k us elapsed since the alarm was set
  h2.Drain();
  ASSERT_EQ(h2.timers.size(), 1u);
  EXPECT_EQ(h2.timers[0].first, 30'000u);  // deadline 60k - now 30k
}

TEST(ProcessServer, StaleTimerFireIsIgnored) {
  ProcessServerProgram ps;
  ProgramHarness h(ps);
  h.Push(99, kUser, kBindSelfChannel, MsgKind::kUser,
         EncodeTaggedU64(ReqTag::kTimerFire, 424242));
  h.Drain();
  EXPECT_TRUE(h.sent.empty());
}

}  // namespace
}  // namespace auragen
