#include "src/paging/page_server.h"

#include <algorithm>
#include <utility>

#include "src/core/wire.h"
#include "src/servers/protocol.h"
#include "src/trace/trace.h"

namespace auragen {

namespace {

// ServerSync op codes (the compact log the backup applies).
enum class PsOp : uint8_t { kWrite = 1, kSync = 2, kDrop = 3 };

SyscallRequest ReadAnyRequest() {
  SyscallRequest req;
  req.num = Sys::kRead;
  req.a = kAnyChannel;
  return req;
}

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

void PageServerProgram::Release(BlockNum block) {
  AURAGEN_CHECK(block < refcount_.size() && refcount_[block] != 0)
      << "release of untracked block" << block;
  if (--refcount_[block] == 0) {
    --blocks_in_use_;
    free_list_.push_back(block);
  }
}

void PageServerProgram::InstallWrite(Gpid pid, PageNum page, BlockNum block) {
  Account& acct = primary_[pid];
  auto [it, inserted] = acct.pages.try_emplace(page, block);
  if (!inserted) {
    Release(it->second);
    it->second = block;
  }
  acct.touched.push_back(page);
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
    if (!inserted) {
      Release(it->second);
      it->second = block;
    }
    Retain(block);
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
      Release(block);
    }
    accounts->erase(it);
  }
}

SyscallRequest PageServerProgram::ReadAny() {
  mode_ = Mode::kAwaitMessage;
  return ReadAnyRequest();
}

SyscallRequest PageServerProgram::AfterService() {
  if (ops_since_sync_ >= options_.sync_every_ops) {
    // §7.9 explicit sync: trim prefix + the op log the backup applies.
    ByteWriter w;
    ServerSyncPrefix prefix;
    for (const auto& [chan, count] : serviced_since_sync_) {
      prefix.serviced.emplace_back(ChannelId{chan}, count);
    }
    prefix.Serialize(w);
    w.Blob(ops_log_);
    serviced_since_sync_.clear();
    ops_log_.clear();
    ops_since_sync_ = 0;
    mode_ = Mode::kSendingSync;
    SyscallRequest req = NativeRequest(NativeSys::kServerSyncSend);
    req.data = w.Take();
    return req;
  }
  return ReadAny();
}

SyscallRequest PageServerProgram::Next(const SyscallResult& prev, bool first) {
  if (first) {
    mode_ = Mode::kStart;
  }
  switch (mode_) {
    case Mode::kStart:
      return ReadAny();

    case Mode::kAwaitMessage: {
      ByteReader r(prev.data);
      cur_channel_ = r.U64();
      r.U64();  // src pid
      r.U32();  // binding tag
      MsgKind kind = static_cast<MsgKind>(r.U8());
      Bytes body = r.Blob();
      serviced_since_sync_[cur_channel_]++;

      switch (kind) {
        case MsgKind::kPageWrite: {
          PageWriteBody write = PageWriteBody::Decode(body);
          cur_pid_ = write.pid;
          cur_page_ = write.page;
          cur_block_ = Alloc();
          mode_ = Mode::kDiskWriting;
          SyscallRequest req = NativeRequest(NativeSys::kDiskWrite);
          req.a = cur_block_;
          req.data = std::move(write.content);
          return req;
        }
        case MsgKind::kSync: {
          SyncRecord record = SyncRecord::Decode(body);
          CopyAccounts(record.pid);
          ByteWriter ops(std::move(ops_log_));
          ops.U8(static_cast<uint8_t>(PsOp::kSync));
          ops.U64(record.pid.value);
          ops_log_ = ops.Take();
          ops_since_sync_++;
          return AfterService();
        }
        case MsgKind::kPageRequest: {
          PageRequestBody req_body = PageRequestBody::Decode(body);
          cur_pid_ = req_body.pid;
          cur_page_ = req_body.page;
          cur_cookie_ = req_body.cookie;
          cur_reply_to_ = req_body.reply_to;
          auto ait = backup_.find(cur_pid_);
          const BlockNum* block = nullptr;
          if (ait != backup_.end()) {
            if (auto pit = ait->second.pages.find(cur_page_); pit != ait->second.pages.end()) {
              block = &pit->second;
            }
          }
          if (block == nullptr) {
            // Never synced: deterministic zero fill at the faulting kernel.
            PageReplyBody reply;
            reply.pid = cur_pid_;
            reply.page = cur_page_;
            reply.cookie = cur_cookie_;
            reply.known = false;
            mode_ = Mode::kReplying;
            SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
            req.a = 3;  // kPageReply
            req.b = cur_channel_;
            req.data = reply.Encode();
            return req;
          }
          cur_block_ = *block;
          mode_ = Mode::kDiskReading;
          SyscallRequest req = NativeRequest(NativeSys::kDiskRead);
          req.a = cur_block_;
          return req;
        }
        case MsgKind::kUser:
        case MsgKind::kClose:
        default:
          // Close notifications and stray traffic change no state.
          return ReadAny();
      }
    }

    case Mode::kDiskWriting: {
      if (prev.rv < 0) {
        // Disk failure: the mirror absorbed it or the machine is beyond the
        // single-failure model; drop the block and continue.
        free_list_.push_back(cur_block_);
        return AfterService();
      }
      InstallWrite(cur_pid_, cur_page_, cur_block_);
      if (options_.tracer != nullptr) {
        options_.tracer->Record(TraceEventKind::kPageStore, kNoCluster, cur_pid_.value, 0,
                                cur_page_, cur_block_);
      }
      ByteWriter ops(std::move(ops_log_));
      ops.U8(static_cast<uint8_t>(PsOp::kWrite));
      ops.U64(cur_pid_.value);
      ops.U32(cur_page_);
      ops.U32(cur_block_);
      ops_log_ = ops.Take();
      ops_since_sync_++;
      return AfterService();
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
        reply.known = false;  // double disk failure; zero-fill beats hanging
      }
      if (options_.tracer != nullptr) {
        options_.tracer->Record(TraceEventKind::kPageServe, kNoCluster, cur_pid_.value, 0,
                                cur_page_, reply.known ? 1 : 0);
      }
      mode_ = Mode::kReplying;
      SyscallRequest req = NativeRequest(NativeSys::kWriteChan);
      req.a = 3;
      req.b = cur_channel_;
      req.data = reply.Encode();
      return req;
    }

    case Mode::kReplying:
      return AfterService();

    case Mode::kSendingSync:
      return ReadAny();
  }
  return ReadAny();
}

void PageServerProgram::ApplyServerSync(ByteReader& r) {
  // Replay the primary's op log against our mirror of the tables. The ops
  // are deterministic: allocation results are recorded, not recomputed.
  Bytes ops = r.Blob();
  ByteReader o(ops);
  while (!o.done()) {
    PsOp op = static_cast<PsOp>(o.U8());
    switch (op) {
      case PsOp::kWrite: {
        Gpid pid;
        pid.value = o.U64();
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
      case PsOp::kSync: {
        Gpid pid;
        pid.value = o.U64();
        CopyAccounts(pid);
        break;
      }
      case PsOp::kDrop: {
        Gpid pid;
        pid.value = o.U64();
        DropAccounts(pid);
        break;
      }
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
  w.U64(cur_pid_.value);
  w.U32(cur_page_);
  w.U32(cur_block_);
  w.U64(cur_cookie_);
  w.U64(cur_channel_);
  w.U32(static_cast<uint32_t>(serviced_since_sync_.size()));
  for (const auto& [chan, count] : serviced_since_sync_) {
    w.U64(chan);
    w.U32(count);
  }
  w.Blob(ops_log_);
  w.U32(ops_since_sync_);
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
  cur_pid_.value = r.U64();
  cur_page_ = r.U32();
  cur_block_ = r.U32();
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
}

bool PageServerProgram::BackupHasPage(Gpid pid, PageNum page) const {
  auto it = backup_.find(pid);
  return it != backup_.end() && it->second.pages.count(page) != 0;
}

bool PageServerProgram::PrimaryHasPage(Gpid pid, PageNum page) const {
  auto it = primary_.find(pid);
  return it != primary_.end() && it->second.pages.count(page) != 0;
}

}  // namespace auragen
