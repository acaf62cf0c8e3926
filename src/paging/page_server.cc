#include "src/paging/page_server.h"

#include <algorithm>
#include <utility>

#include "src/servers/protocol.h"
#include "src/trace/trace.h"

namespace auragen {

namespace {

constexpr BlockNum kNoBlock = ~BlockNum{0};
// The durable point of a partial ServerSync (ops held until the next one).
constexpr uint64_t kPartialSync = ~uint64_t{0};

}  // namespace

PageServerProgram::PageServerProgram(PageServerOptions options)
    : options_(options), refcount_(options.num_blocks, 0), next_block_(options.first_block) {}

BlockNum PageServerProgram::Alloc() {
  if (!free_list_.empty()) {
    BlockNum b = free_list_.back();
    free_list_.pop_back();
    return b;
  }
  AURAGEN_CHECK(next_block_ < options_.num_blocks) << "page store exhausted";
  return next_block_++;
}

void PageServerProgram::Retain(BlockNum block) {
  AURAGEN_CHECK(block < refcount_.size()) << "block past the page store" << block;
  if (refcount_[block]++ == 0) {
    ++blocks_in_use_;
  }
}

// `superseder` is the block that took `block`'s place in the account
// (kNoBlock: none).
void PageServerProgram::Release(BlockNum block, BlockNum superseder) {
  AURAGEN_CHECK(block < refcount_.size() && refcount_[block] != 0)
      << "release of untracked block" << block;
  if (--refcount_[block] != 0) {
    return;
  }
  --blocks_in_use_;
  free_list_.push_back(block);
  auto it = staged_.find(block);
  if (it == staged_.end()) {
    return;
  }
  // Superseded while staged: nothing will read this image, so it is
  // dropped unwritten. The superseding image takes over its slot when that
  // is earlier in the write order than its own: a page re-shipped faster
  // than its versions reach the disk still lands within one pass of the
  // queue, and the drop stops holding the durable prefix back.
  dropped_[it->second.write] = consumed_;  // released by the op consumed now
  Slot& slot = SlotAt(it->second.slot);
  slot.live = false;
  staged_.erase(it);
  auto sup = staged_.find(superseder);
  if (sup != staged_.end() && sup->second.slot > slot.seq) {
    Slot& from = SlotAt(sup->second.slot);
    slot.pid = from.pid;
    slot.page = from.page;
    slot.block = from.block;
    slot.live = true;
    from.live = false;
    sup->second.slot = slot.seq;
  }
}

void PageServerProgram::InstallWrite(Gpid pid, PageNum page, BlockNum block) {
  Account& acct = primary_[pid];
  auto [it, inserted] = acct.pages.try_emplace(page, block);
  acct.touched.push_back(page);
  if (!inserted) {
    if (it->second == block) {
      return;  // an op applied twice (a mirror restored mid-log)
    }
    const BlockNum old = it->second;
    it->second = block;
    Retain(block);
    Release(old, block);
    return;
  }
  Retain(block);
}

void PageServerProgram::CopyAccounts(Gpid pid) {
  // §7.8: "make the backup's account identical to that of the primary.
  // After a sync, only one copy of each page will exist."
  Account& b = backup_[pid];
  Account& p = primary_[pid];
  // Only the touched pages differ. Visiting them in ascending page order
  // frees the replaced backup blocks in the order a full copy would (a
  // full copy's release pass frees exactly these blocks: every untouched
  // page's block is still held by the primary), so the free list, and
  // every later block number, comes out the same.
  std::sort(p.touched.begin(), p.touched.end());
  p.touched.erase(std::unique(p.touched.begin(), p.touched.end()), p.touched.end());
  for (PageNum page : p.touched) {
    const BlockNum block = p.pages.at(page);
    auto [it, inserted] = b.pages.try_emplace(page, block);
    Retain(block);
    if (!inserted) {
      const BlockNum old = it->second;
      it->second = block;
      Release(old, block);
    }
  }
  p.touched.clear();
}

void PageServerProgram::DropAccounts(Gpid pid) {
  for (auto* accounts : {&primary_, &backup_}) {
    auto it = accounts->find(pid);
    if (it == accounts->end()) {
      continue;
    }
    for (const auto& [page, block] : it->second.pages) {
      Release(block, kNoBlock);
    }
    accounts->erase(it);
  }
}

// ------------------------------------------------- durable-prefix bookkeeping

PageServerProgram::Slot& PageServerProgram::SlotAt(uint64_t seq) {
  auto it = std::lower_bound(slots_.begin(), slots_.end(), seq,
                             [](const Slot& s, uint64_t v) { return s.seq < v; });
  AURAGEN_CHECK(it != slots_.end() && it->seq == seq) << "no staging slot" << seq;
  return *it;
}

void PageServerProgram::Consumed(Uncovered u) {
  u.seq = consumed_++;
  uncovered_.push_back(u);
  if (staged_.empty()) {
    Advance();  // nothing staged: everything consumed is durable
  }
}

uint64_t PageServerProgram::Durable() const {
  return uncovered_.empty() ? consumed_ : uncovered_.front().seq;
}

// True when a prefix ending just before `seq` would separate a dropped
// write from the op that released its block.
bool PageServerProgram::SplitsDrop(uint64_t seq) const {
  for (auto it = dropped_.begin(); it != dropped_.end() && it->first < seq; ++it) {
    if (it->second >= seq) {
      return true;
    }
  }
  return false;
}

// Covers the durable prefix one ServerSync's worth of ops at a time.
void PageServerProgram::CoverDurable() {
  while (!uncovered_.empty() && uncovered_.front().seq < durable_end_ &&
         ops_since_sync_ < options_.sync_every_ops) {
    Cover(uncovered_.front());
    uncovered_.pop_front();
  }
  const uint64_t durable = Durable();
  for (auto it = dropped_.begin(); it != dropped_.end() && it->first < durable;) {
    it = it->second < durable ? dropped_.erase(it) : std::next(it);
  }
}

void PageServerProgram::Cover(const Uncovered& u) {
  serviced_since_sync_[u.channel]++;
  if (u.op == PsOp::kNone) {
    return;
  }
  ByteWriter ops(std::move(ops_log_));
  ops.U8(static_cast<uint8_t>(u.op));
  ops.U64(u.pid.value);
  if (u.op == PsOp::kWrite) {
    ops.U32(u.page);
    ops.U32(u.block);
  }
  ops_log_ = ops.Take();
  ops_since_sync_++;
}

// Moves the durable prefix as far as it may go. It ends at the oldest live
// slot, or earlier at a dropped write it would otherwise split from its
// release. Visiting the dropped writes newest first finds that end in one
// pass: pulling the end back past one can only catch older ones.
void PageServerProgram::Advance() {
  auto live = std::find_if(slots_.begin(), slots_.end(), [](const Slot& s) { return s.live; });
  uint64_t end = live != slots_.end() ? live->seq : consumed_;
  for (auto it = dropped_.lower_bound(end); it != dropped_.begin();) {
    --it;
    if (it->second >= end) {
      end = it->first;
    }
  }
  while (!slots_.empty() && slots_.front().seq < end) {
    slots_.pop_front();
  }
  durable_end_ = end;
  CoverDurable();
}

// ------------------------------------------------------------ request loop

SyscallRequest PageServerProgram::ReadAny(bool poll) {
  mode_ = poll ? Mode::kPolling : Mode::kAwaitMessage;
  if (poll) {
    return NativeRequest(NativeSys::kPollAny);
  }
  SyscallRequest req;
  req.num = Sys::kRead;
  req.a = kAnyChannel;
  return req;
}

// One group write: the images of the oldest live slots, up to a batch.
SyscallRequest PageServerProgram::Flush() {
  const size_t n = std::min<size_t>(staged_.size(), kMaxBatchPages);
  ByteWriter w(4 + n * (4 + 4 + kAvmPageBytes));
  w.U32(static_cast<uint32_t>(n));
  batch_.clear();
  for (size_t i = 0; batch_.size() < n; ++i) {
    if (slots_[i].live) {
      batch_.push_back(i);
      w.U32(slots_[i].block);
      w.Blob(staged_.at(slots_[i].block).image);
    }
  }
  consumed_since_flush_ = 0;
  mode_ = Mode::kFlushing;
  SyscallRequest req = NativeRequest(NativeSys::kDiskWriteVec);
  req.data = w.Take();
  return req;
}

// What to do once the current message is dealt with.
SyscallRequest PageServerProgram::Continue() {
  CoverDurable();
  if (ops_since_sync_ >= options_.sync_every_ops) {
    // §7.9 explicit sync: trim prefix + the durable point + the op log the
    // backup applies, all for the durable prefix only. Where the covered
    // part ends between a dropped write and its release, the ops go as a
    // partial sync (no trims, kPartialSync): the backup holds them until
    // the sync that ends the prefix where it may end. A long prefix thus
    // never becomes one huge frame holding the bus (and the heartbeats
    // behind it) for milliseconds.
    const bool partial = SplitsDrop(Durable());
    ByteWriter w;
    ServerSyncPrefix prefix;
    if (!partial) {
      for (const auto& [chan, count] : serviced_since_sync_) {
        prefix.serviced.emplace_back(ChannelId{chan}, count);
      }
      serviced_since_sync_.clear();
    }
    prefix.Serialize(w);
    w.U64(partial ? kPartialSync : Durable());
    w.Blob(ops_log_);
    ops_log_.clear();
    ops_since_sync_ = 0;
    mode_ = Mode::kSendingSync;
    SyscallRequest req = NativeRequest(NativeSys::kServerSyncSend);
    req.data = w.Take();
    return req;
  }
  if (!staged_.empty()) {
    if (consumed_since_flush_ >= kConsumeAhead) {
      return Flush();
    }
    if (staged_.size() >= kPollFromPages) {
      return ReadAny(/*poll=*/true);
    }
    if (!timer_armed_) {
      timer_armed_ = true;
      mode_ = Mode::kArmingTimer;
      SyscallRequest req = NativeRequest(NativeSys::kSetTimer);
      req.a = kIdleFlushUs;
      return req;
    }
  }
  return ReadAny(/*poll=*/false);
}

SyscallRequest PageServerProgram::Reply(const PageReplyBody& reply, uint64_t channel) {
  mode_ = Mode::kReplying;
  SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
  req.a = 3;  // kPageReply
  req.b = channel;
  req.data = reply.Encode();
  return req;
}

SyscallRequest PageServerProgram::ServePageRequest(uint64_t channel, ByteView body) {
  PageRequestBody request = PageRequestBody::Decode(body);
  cur_pid_ = request.pid;
  cur_page_ = request.page;
  cur_cookie_ = request.cookie;
  cur_channel_ = channel;
  PageReplyBody reply;
  reply.pid = cur_pid_;
  reply.page = cur_page_;
  reply.cookie = cur_cookie_;
  auto ait = backup_.find(cur_pid_);
  if (ait == backup_.end()) {
    return Reply(reply, channel);  // never synced: the faulting body fills it
  }
  auto pit = ait->second.pages.find(cur_page_);
  if (pit == ait->second.pages.end()) {
    return Reply(reply, channel);
  }
  auto sit = staged_.find(pit->second);
  if (sit == staged_.end()) {
    mode_ = Mode::kDiskReading;
    SyscallRequest req = NativeRequest(NativeSys::kDiskRead);
    req.a = pit->second;
    return req;
  }
  // Still staged: the image in memory is the block's content.
  reply.known = true;
  reply.content = sit->second.image;
  if (options_.tracer != nullptr) {
    options_.tracer->Record(TraceEventKind::kPageServe, kNoCluster, cur_pid_.value, 0,
                            cur_page_, 1);
  }
  return Reply(reply, channel);
}

SyscallRequest PageServerProgram::Next(const SyscallResult& prev, bool first) {
  if (first) {
    mode_ = Mode::kStart;
    timer_armed_ = false;
    held_ops_.clear();  // a backup taking over replays their requests
  }
  switch (mode_) {
    case Mode::kStart:
    case Mode::kReplying:
    case Mode::kSendingSync:
    case Mode::kArmingTimer:
      return Continue();

    case Mode::kAwaitMessage:
    case Mode::kPolling: {
      if (prev.rv < 0) {
        // The poll found the queue idle: write now rather than wait.
        return staged_.empty() ? ReadAny(/*poll=*/false) : Flush();
      }
      ByteReader r(prev.data);
      const uint64_t channel = r.U64();
      r.U64();  // src pid
      const uint32_t tag = r.U32();
      const MsgKind kind = static_cast<MsgKind>(r.U8());
      const ByteView body = r.BlobView();
      if (tag == kBindSelfChannel) {
        // The idle-flush timer, the only traffic on the self channel. It is
        // cluster-local soft state: neither trimmed nor logged.
        timer_armed_ = false;
        return staged_.empty() ? Continue() : Flush();
      }
      ++consumed_since_flush_;
      switch (kind) {
        case MsgKind::kPageWrite: {
          PageWriteBody write = PageWriteBody::Decode(body);
          const BlockNum block = Alloc();
          // Staged before it enters the account, so that the image it
          // supersedes can hand over its slot.
          slots_.push_back(Slot{consumed_, write.pid, write.page, block, true});
          staged_[block] = StagedImage{consumed_, consumed_, std::move(write.content)};
          InstallWrite(write.pid, write.page, block);
          Consumed(Uncovered{0, channel, PsOp::kWrite, write.pid, write.page, block});
          return Continue();
        }
        case MsgKind::kSync: {
          const Gpid pid = SyncRecord::PeekPid(body);
          CopyAccounts(pid);
          Consumed(Uncovered{0, channel, PsOp::kSync, pid, 0, 0});
          return Continue();
        }
        case MsgKind::kPageRequest:
          Consumed(Uncovered{0, channel, PsOp::kNone, Gpid{}, 0, 0});
          return ServePageRequest(channel, body);
        case MsgKind::kUser:
        case MsgKind::kClose:
        default:
          // Close notifications and stray traffic change no state.
          Consumed(Uncovered{0, channel, PsOp::kNone, Gpid{}, 0, 0});
          return Continue();
      }
    }

    case Mode::kFlushing: {
      // A failed group write means both mirrors failed, which is beyond the
      // single-failure model: the images are dropped like landed ones.
      for (size_t i : batch_) {
        Slot& slot = slots_[i];
        if (options_.tracer != nullptr && prev.rv >= 0) {
          options_.tracer->Record(TraceEventKind::kPageStore, kNoCluster, slot.pid.value, 0,
                                  slot.page, slot.block);
        }
        slot.live = false;
        staged_.erase(slot.block);
      }
      batch_.clear();
      Advance();
      return Continue();
    }

    case Mode::kDiskReading: {
      PageReplyBody reply;
      reply.pid = cur_pid_;
      reply.page = cur_page_;
      reply.cookie = cur_cookie_;
      reply.known = true;
      if (prev.rv >= 0) {
        reply.content = prev.data;
        reply.content.resize(kAvmPageBytes, 0);
      } else {
        reply.known = false;  // double disk failure; an image/zero fill beats hanging
      }
      if (options_.tracer != nullptr) {
        options_.tracer->Record(TraceEventKind::kPageServe, kNoCluster, cur_pid_.value, 0,
                                cur_page_, reply.known ? 1 : 0);
      }
      return Reply(reply, cur_channel_);
    }
  }
  return Continue();
}

void PageServerProgram::ApplyServerSync(ByteReader& r) {
  const uint64_t durable = r.U64();
  if (durable == kPartialSync) {
    const ByteView ops = r.BlobView();
    held_ops_.insert(held_ops_.end(), ops.begin(), ops.end());
    return;
  }
  // A mirror restored from its primary's state (a halfback re-backup)
  // starts with that primary's staged images. Those in slots before the
  // primary's durable point have landed there or were dropped; writing
  // them at takeover could overwrite a block reused since.
  while (!slots_.empty() && slots_.front().seq < durable) {
    if (slots_.front().live) {
      staged_.erase(slots_.front().block);
    }
    slots_.pop_front();
  }
  dropped_.erase(dropped_.begin(), dropped_.lower_bound(durable));
  // Replay the primary's op log against our mirror of the tables. The ops
  // are deterministic: allocation results are recorded, not recomputed.
  const ByteView tail = r.BlobView();
  Bytes ops = std::move(held_ops_);
  held_ops_.clear();
  ops.insert(ops.end(), tail.begin(), tail.end());
  ByteReader o(ops);
  while (!o.done()) {
    PsOp op = static_cast<PsOp>(o.U8());
    Gpid pid;
    pid.value = o.U64();
    switch (op) {
      case PsOp::kWrite: {
        PageNum page = o.U32();
        BlockNum block = o.U32();
        // Mirror the allocator: remove from free list / bump next_block_.
        auto it = std::find(free_list_.begin(), free_list_.end(), block);
        if (it != free_list_.end()) {
          free_list_.erase(it);
        } else if (block >= next_block_) {
          next_block_ = block + 1;
        }
        InstallWrite(pid, page, block);
        break;
      }
      case PsOp::kSync:
        CopyAccounts(pid);
        break;
      case PsOp::kDrop:
        DropAccounts(pid);
        break;
      case PsOp::kNone:
        break;
    }
  }
}

void PageServerProgram::SerializeState(ByteWriter& w) const {
  w.U8(static_cast<uint8_t>(mode_));
  auto put_accounts = [&](const std::map<Gpid, Account>& accounts) {
    w.U32(static_cast<uint32_t>(accounts.size()));
    for (const auto& [pid, acct] : accounts) {
      w.U64(pid.value);
      w.U32(static_cast<uint32_t>(acct.pages.size()));
      for (const auto& [page, block] : acct.pages) {
        w.U32(page);
        w.U32(block);
      }
    }
  };
  put_accounts(primary_);
  put_accounts(backup_);
  w.U32(static_cast<uint32_t>(free_list_.size()));
  for (BlockNum b : free_list_) {
    w.U32(b);
  }
  w.U32(next_block_);
  w.U64(consumed_);
  w.U64(durable_end_);
  w.U32(static_cast<uint32_t>(slots_.size()));
  for (const Slot& slot : slots_) {
    w.U64(slot.seq);
    w.U8(slot.live ? 1 : 0);
    if (slot.live) {
      const StagedImage& staged = staged_.at(slot.block);
      w.U64(slot.pid.value);
      w.U32(slot.page);
      w.U32(slot.block);
      w.U64(staged.write);
      w.Blob(staged.image);
    }
  }
  w.U32(static_cast<uint32_t>(dropped_.size()));
  for (const auto& [write, released] : dropped_) {
    w.U64(write);
    w.U64(released);
  }
  w.U32(consumed_since_flush_);
  w.U64(cur_pid_.value);
  w.U32(cur_page_);
  w.U64(cur_cookie_);
  w.U64(cur_channel_);
  w.U32(static_cast<uint32_t>(serviced_since_sync_.size()));
  for (const auto& [chan, count] : serviced_since_sync_) {
    w.U64(chan);
    w.U32(count);
  }
  w.Blob(ops_log_);
  w.U32(ops_since_sync_);
  w.U32(static_cast<uint32_t>(uncovered_.size()));
  for (const Uncovered& u : uncovered_) {
    w.U64(u.seq);
    w.U64(u.channel);
    w.U8(static_cast<uint8_t>(u.op));
    w.U64(u.pid.value);
    w.U32(u.page);
    w.U32(u.block);
  }
}

void PageServerProgram::RestoreState(ByteReader& r) {
  mode_ = static_cast<Mode>(r.U8());
  auto get_accounts = [&](std::map<Gpid, Account>& accounts) {
    accounts.clear();
    uint32_t n = r.U32();
    for (uint32_t i = 0; i < n; ++i) {
      Gpid pid;
      pid.value = r.U64();
      uint32_t m = r.U32();
      Account acct;
      for (uint32_t j = 0; j < m; ++j) {
        PageNum page = r.U32();
        acct.pages[page] = r.U32();
      }
      accounts[pid] = std::move(acct);
    }
  };
  get_accounts(primary_);
  get_accounts(backup_);
  refcount_.assign(options_.num_blocks, 0);
  blocks_in_use_ = 0;
  for (const auto* accounts : {&primary_, &backup_}) {
    for (const auto& [pid, acct] : *accounts) {
      for (const auto& [page, block] : acct.pages) {
        Retain(block);
      }
    }
  }
  // No touched list survives serialization, so every primary page counts
  // as touched. A backup account only ever receives pages copied from the
  // primary, and pages leave the primary only with the backup account, so
  // the backup's pages are a subset of the primary's: the copy of every
  // page frees exactly the blocks a full copy frees, in the same order.
  for (auto& [pid, acct] : primary_) {
    for (const auto& [page, block] : acct.pages) {
      acct.touched.push_back(page);
    }
  }
  free_list_.clear();
  uint32_t nf = r.U32();
  for (uint32_t i = 0; i < nf; ++i) {
    free_list_.push_back(r.U32());
  }
  next_block_ = r.U32();
  consumed_ = r.U64();
  durable_end_ = r.U64();
  slots_.clear();
  staged_.clear();
  const uint32_t nslots = r.U32();
  for (uint32_t i = 0; i < nslots; ++i) {
    Slot slot;
    slot.seq = r.U64();
    slot.live = r.U8() != 0;
    if (slot.live) {
      slot.pid.value = r.U64();
      slot.page = r.U32();
      slot.block = r.U32();
      StagedImage& staged = staged_[slot.block];
      staged.slot = slot.seq;
      staged.write = r.U64();
      staged.image = r.Blob();
    }
    slots_.push_back(slot);
  }
  dropped_.clear();
  const uint32_t nd = r.U32();
  for (uint32_t i = 0; i < nd; ++i) {
    const uint64_t write = r.U64();
    dropped_[write] = r.U64();
  }
  held_ops_.clear();
  consumed_since_flush_ = r.U32();
  batch_.clear();
  timer_armed_ = false;
  cur_pid_.value = r.U64();
  cur_page_ = r.U32();
  cur_cookie_ = r.U64();
  cur_channel_ = r.U64();
  serviced_since_sync_.clear();
  uint32_t ns = r.U32();
  for (uint32_t i = 0; i < ns; ++i) {
    uint64_t chan = r.U64();
    serviced_since_sync_[chan] = r.U32();
  }
  ops_log_ = r.Blob();
  ops_since_sync_ = r.U32();
  uncovered_.clear();
  const uint32_t nu = r.U32();
  for (uint32_t i = 0; i < nu; ++i) {
    Uncovered u;
    u.seq = r.U64();
    u.channel = r.U64();
    u.op = static_cast<PsOp>(r.U8());
    u.pid.value = r.U64();
    u.page = r.U32();
    u.block = r.U32();
    uncovered_.push_back(u);
  }
}

bool PageServerProgram::BackupHasPage(Gpid pid, PageNum page) const {
  auto it = backup_.find(pid);
  return it != backup_.end() && it->second.pages.count(page) != 0;
}

bool PageServerProgram::PrimaryHasPage(Gpid pid, PageNum page) const {
  auto it = primary_.find(pid);
  return it != primary_.end() && it->second.pages.count(page) != 0;
}

BlockNum PageServerProgram::BlockOf(Gpid pid, PageNum page, bool backup) const {
  const auto& accounts = backup ? backup_ : primary_;
  auto it = accounts.find(pid);
  if (it == accounts.end()) {
    return 0;
  }
  auto pit = it->second.pages.find(page);
  return pit == it->second.pages.end() ? 0 : pit->second;
}

std::vector<BlockNum> PageServerProgram::ReferencedBlocks() const {
  std::vector<BlockNum> blocks;
  for (BlockNum b = 0; b < refcount_.size(); ++b) {
    if (refcount_[b] != 0) {
      blocks.push_back(b);
    }
  }
  return blocks;
}

}  // namespace auragen
