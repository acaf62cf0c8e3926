// The page server (§7.6): a peripheral server owning disk space that holds
// the paged-out state of every backed-up process.
//
// It keeps two accounts per process: the primary account (pages as last
// shipped) and the backup account (pages as of the last *successful* sync).
// Dirty pages arriving at sync time go into the primary account; the sync
// message — which the bus delivered atomically to the backup cluster, to
// this server, and to this server's backup — makes the backup account
// identical to the primary's. "After a sync, only one copy of each page
// will exist" (§7.8): accounts share disk blocks by refcount, and a second
// copy appears only when the primary ships a newer version of a page.
//
// Recovery paging (§7.10.2) reads from the *backup* account, which is why
// the account copy and the backup-PCB update riding the same atomic message
// is load-bearing: the page account can never run ahead of the PCB.
//
// The server is a write-back stage (DESIGN.md §20). It consumes page writes
// and sync records without waiting for the disk: each updates the accounts
// in arrival order, and each written page's image is *staged* in memory.
// Staged images go to disk in FIFO order as multi-page kDiskWriteVec group
// writes, one seek per batch. An image whose block loses its last account
// reference before it lands is dropped unwritten. A page request is
// answered at once, from the staged image when its block is still staged,
// from disk otherwise; it never waits behind unconsumed writes.
//
// Fault tolerance of the server itself is §7.9's active-backup scheme: page
// contents live on the dual-ported mirrored disk; the explicit ServerSync
// carries only a compact operation log (allocations and account copies),
// and the backup instance replays untrimmed request messages on takeover.
// A ServerSync covers only the *durable prefix* of what was consumed: the
// messages consumed before the oldest page image still staged (and never
// between a dropped write and the op that dropped it). So the backup's
// mirror of the accounts references only blocks whose content is on disk,
// and every write whose image could still be lost stays untrimmed in the
// backup's saved queues, to be replayed. A long prefix goes out in frames
// of sync_every_ops ops; the backup holds the ops of a frame that ends
// where the prefix may not (a partial sync) until the next one.
//
// Accounts are never dropped: the op log can carry a drop (PsOp::kDrop, and
// the backup instance applies it), but nothing emits one, because no
// message tells the server that a process exited. The accounts of exited
// processes, and their blocks, therefore stay until the machine ends.
// Fixing that needs a new exit message to the server, which would change
// every trace digest.

#ifndef AURAGEN_SRC_PAGING_PAGE_SERVER_H_
#define AURAGEN_SRC_PAGING_PAGE_SERVER_H_

#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/core/wire.h"
#include "src/disk/disk.h"
#include "src/kernel/native_body.h"

namespace auragen {

class Tracer;

struct PageServerOptions {
  // Send a ServerSync once this many state-changing requests are durable.
  uint32_t sync_every_ops = 64;
  // First usable disk block (blocks below are reserved).
  BlockNum first_block = 8;
  BlockNum num_blocks = 16384;
  // Write-only flight recorder; null disables server-side trace events.
  Tracer* tracer = nullptr;
};

class PageServerProgram : public NativeProgram {
 public:
  // Group-write limits, derived from the default disk model (DiskConfig:
  // 200 us seek, 0.5 us per byte, so one 256-byte page streams in 128 us).
  static constexpr DiskConfig kDiskModel{};
  static constexpr SimTime kPageStreamUs =
      static_cast<SimTime>(kAvmPageBytes * kDiskModel.us_per_byte);
  // From kPollFromPages staged pages on (16), a batch's seek is at most a
  // tenth of its transfer: the server then polls its queue instead of
  // blocking, and writes as soon as the queue is idle. Fewer staged pages
  // wait for an idle timer of kIdleFlushUs (2 248 us), the time the disk
  // takes to write kPollFromPages pages.
  static constexpr uint32_t kPollFromPages = static_cast<uint32_t>(
      (10 * kDiskModel.seek_us + kPageStreamUs - 1) / kPageStreamUs);
  static constexpr SimTime kIdleFlushUs = kDiskModel.seek_us + kPollFromPages * kPageStreamUs;
  // One batch carries at most kMaxBatchPages pages (64): 8.4 ms of disk
  // time, the seek 2.4 % of it, and the longest a page request can wait
  // behind a group write.
  static constexpr uint32_t kMaxBatchPages = 4 * kPollFromPages;
  // At most kConsumeAhead messages (256) are consumed between two batches:
  // the queue is drained ahead of the disk, so a page request waits behind
  // at most that many messages and one batch.
  static constexpr uint32_t kConsumeAhead = 4 * kMaxBatchPages;

  explicit PageServerProgram(PageServerOptions options);

  SyscallRequest Next(const SyscallResult& prev, bool first) override;
  void SerializeState(ByteWriter& w) const override;
  void RestoreState(ByteReader& r) override;
  void ApplyServerSync(ByteReader& r) override;
  uint64_t StepWork() const override { return 30; }

  // Introspection for tests.
  size_t NumAccounts() const { return primary_.size(); }
  bool BackupHasPage(Gpid pid, PageNum page) const;
  bool PrimaryHasPage(Gpid pid, PageNum page) const;
  // The block backing `page` in the primary (or backup) account; 0 if none.
  BlockNum BlockOf(Gpid pid, PageNum page, bool backup) const;
  // Every block some account references, ascending, without repeats.
  std::vector<BlockNum> ReferencedBlocks() const;
  uint64_t blocks_in_use() const { return blocks_in_use_; }
  // Page images consumed but not on disk yet.
  size_t staged_pages() const { return staged_.size(); }

 private:
  enum class Mode : uint8_t {
    kStart,
    kAwaitMessage,   // blocking read-any pending
    kPolling,        // non-blocking read-any pending
    kFlushing,       // a group write (kDiskWriteVec) pending
    kDiskReading,    // page content on its way back for a kPageRequest
    kReplying,       // kWriteChan of a page reply pending
    kSendingSync,    // kServerSyncSend pending
    kArmingTimer,    // kSetTimer for the idle flush pending
  };

  // ServerSync op codes (the compact log the backup applies); kNone marks a
  // consumed message that changes no state but is still trimmed.
  enum class PsOp : uint8_t { kNone = 0, kWrite = 1, kSync = 2, kDrop = 3 };

  struct Account {
    std::map<PageNum, BlockNum> pages;
    // Primary accounts: pages InstallWrite replaced since this process's
    // last account copy (unsorted, may repeat), or, after RestoreState,
    // every page. Every other page of the primary account already sits,
    // with the same block, in the backup.
    std::vector<PageNum> touched;
  };

  // A place in the group-write order, opened by a page write. It holds that
  // write's image, or a newer image moved in (see Release), until the image
  // lands or is dropped.
  struct Slot {
    uint64_t seq = 0;  // consumption number of the write that opened it
    Gpid pid;          // the image now in the slot
    PageNum page = 0;
    BlockNum block = 0;
    bool live = false;  // holds an image not on disk yet
  };
  struct StagedImage {
    uint64_t slot = 0;   // seq of the slot holding it
    uint64_t write = 0;  // consumption number of the write that shipped it
    Bytes image;
  };

  // A consumed message a ServerSync does not cover yet: the channel it is
  // trimmed from and the op the backup applies for it.
  struct Uncovered {
    uint64_t seq = 0;
    uint64_t channel = 0;
    PsOp op = PsOp::kNone;
    Gpid pid;
    PageNum page = 0;
    BlockNum block = 0;
  };

  SyscallRequest Continue();
  SyscallRequest ReadAny(bool poll);
  SyscallRequest Flush();
  SyscallRequest ServePageRequest(uint64_t channel, ByteView body);
  SyscallRequest Reply(const PageReplyBody& reply, uint64_t channel);
  void Consumed(Uncovered u);
  void Cover(const Uncovered& u);
  void Advance();
  void CoverDurable();
  bool SplitsDrop(uint64_t seq) const;
  uint64_t Durable() const;
  Slot& SlotAt(uint64_t seq);
  BlockNum Alloc();
  void Retain(BlockNum block);
  void Release(BlockNum block, BlockNum superseder);
  void InstallWrite(Gpid pid, PageNum page, BlockNum block);
  void CopyAccounts(Gpid pid);
  void DropAccounts(Gpid pid);

  PageServerOptions options_;
  Mode mode_ = Mode::kStart;

  std::map<Gpid, Account> primary_;
  std::map<Gpid, Account> backup_;
  std::vector<uint32_t> refcount_;  // by block; sized by num_blocks
  uint64_t blocks_in_use_ = 0;      // blocks with a nonzero refcount
  std::vector<BlockNum> free_list_;
  BlockNum next_block_;

  // Write-back stage (DESIGN.md §20). consumed_ counts consumed messages.
  uint64_t consumed_ = 0;
  uint64_t durable_end_ = 0;  // messages before it may be covered
  std::deque<Slot> slots_;  // by seq; dead slots linger until the prefix passes
  std::unordered_map<BlockNum, StagedImage> staged_;  // live images by block
  // Writes dropped unwritten: seq -> consumption number of the op that
  // released the block's last reference. No durable prefix may end in
  // (seq, released], where the backup's mirror would reference the block.
  std::map<uint64_t, uint64_t> dropped_;
  // Backup instance: ops of partial ServerSyncs, applied with the next
  // complete one.
  Bytes held_ops_;
  uint32_t consumed_since_flush_ = 0;
  std::vector<size_t> batch_;  // slots_ indices the pending group write holds
  bool timer_armed_ = false;   // soft state: timers die with the cluster

  // In-flight page request.
  Gpid cur_pid_;
  PageNum cur_page_ = 0;
  uint64_t cur_cookie_ = 0;
  uint64_t cur_channel_ = 0;

  // ServerSync bookkeeping (§7.9): the durable prefix not yet shipped, and
  // the consumed messages beyond it.
  std::map<uint64_t, uint32_t> serviced_since_sync_;  // channel -> count
  Bytes ops_log_;
  uint32_t ops_since_sync_ = 0;
  std::deque<Uncovered> uncovered_;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_PAGING_PAGE_SERVER_H_
