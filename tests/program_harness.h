// Test harness that drives a NativeProgram directly: it plays the kernel's
// role, answering device and channel syscalls from canned state, so server
// state machines (file/page/tty/process server) can be unit-tested without
// a machine — including their §7.9 serialize/apply/replay behaviour. Time
// does not pass on its own: Idle() fires the timers a program armed.

#ifndef AURAGEN_TESTS_PROGRAM_HARNESS_H_
#define AURAGEN_TESTS_PROGRAM_HARNESS_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/core/wire.h"
#include "src/kernel/native_body.h"
#include "src/servers/protocol.h"

namespace auragen {

class ProgramHarness {
 public:
  explicit ProgramHarness(NativeProgram& program) : program_(program) {}

  // Emulates NativeBody's post-restore entry: the restored program's first
  // Next() call arrives with first=false (it is not a fresh start).
  void MarkRestored() { first_ = false; }

  struct Sent {
    uint64_t channel = 0;
    uint64_t kind = 0;  // kWriteChan `a` argument
    Bytes payload;
  };

  // An incoming message for the read-any queue.
  void Push(uint64_t channel, Gpid src, uint32_t tag, MsgKind kind, Bytes body) {
    Incoming in;
    ByteWriter w;
    w.U64(channel);
    w.U64(src.value);
    w.U32(tag);
    w.U8(static_cast<uint8_t>(kind));
    w.Blob(body);
    in.payload = w.Take();
    in.body_size = 0;
    incoming_.push_back(std::move(in));
  }

  // Advances the program until it blocks on an empty read-any queue (or a
  // step budget runs out — treated as a livelock failure). A non-blocking
  // read (kPollAny) of an empty queue completes at once with -kWouldBlock.
  void Drain(int max_steps = 10000) {
    for (int i = 0; i < max_steps; ++i) {
      SyscallRequest req = program_.Next(last_, first_);
      first_ = false;
      last_ = SyscallResult{};
      const bool poll = req.num == static_cast<Sys>(NativeSys::kPollAny);
      if (poll || (req.num == Sys::kRead && req.a == kAnyChannel)) {
        if (!incoming_.empty()) {
          TakeIncoming();
        } else if (poll) {
          last_.rv = -static_cast<int64_t>(Errc::kWouldBlock);
        } else {
          pending_read_ = true;
          return;
        }
        continue;
      }
      ServiceNative(req);
    }
    AURAGEN_PANIC("program did not quiesce");
  }

  // Resumes a program parked in read-any with freshly Pushed messages.
  void Deliver() {
    AURAGEN_CHECK(pending_read_) << "program not blocked in read-any";
    AURAGEN_CHECK(!incoming_.empty());
    TakeIncoming();
    pending_read_ = false;
    Drain();
  }

  // Lets simulated time pass with nothing else arriving: every timer the
  // program armed fires on its self channel (kTimerFire), including timers
  // armed meanwhile, until the program parks with none left.
  void Idle() {
    AURAGEN_CHECK(pending_read_) << "program not blocked in read-any";
    while (timers_fired_ < timers.size()) {
      const uint64_t cookie = timers[timers_fired_++].second;
      Push(self_channel, who_pid, kBindSelfChannel, MsgKind::kUser,
           EncodeTaggedU64(ReqTag::kTimerFire, cookie));
      Deliver();
    }
  }

  // --- observable effects ---
  std::vector<Sent> sent;                 // kWriteChan calls
  std::vector<Bytes> server_syncs;        // kServerSyncSend payloads
  std::vector<Bytes> tty_emits;           // kTtyEmit payloads
  std::vector<ChanCreate> accepts;        // kAcceptChan calls
  std::vector<std::pair<uint64_t, uint64_t>> timers;  // (delay, cookie)
  std::map<BlockNum, Bytes> disk;
  std::map<BlockNum, std::vector<Bytes>> disk_history;  // every image written
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t disk_write_batches = 0;  // kDiskWriteVec transactions

  // --- canned environment ---
  Gpid who_pid = Gpid::Make(31, 99);
  ClusterId who_cluster = 0;
  ClusterId who_backup = 1;
  SimTime now = 1000;
  std::map<uint64_t, uint64_t> find_chan;  // tag -> channel id
  uint64_t self_channel = 99;              // where Idle() delivers timer fires
  // Called with each kServerSyncSend payload at the moment it is sent.
  std::function<void(const Bytes&)> on_server_sync;

 private:
  struct Incoming {
    Bytes payload;
    size_t body_size;
  };

  void TakeIncoming() {
    last_.data = std::move(incoming_.front().payload);
    last_.rv = static_cast<int64_t>(last_.data.size());
    incoming_.pop_front();
  }

  void ServiceNative(const SyscallRequest& req) {
    switch (static_cast<NativeSys>(req.num)) {
      case NativeSys::kDiskRead: {
        ++disk_reads;
        auto it = disk.find(static_cast<BlockNum>(req.a));
        last_.rv = 0;
        last_.data = it != disk.end() ? it->second : Bytes{};
        break;
      }
      case NativeSys::kDiskWrite:
        ++disk_writes;
        disk[static_cast<BlockNum>(req.a)] = req.data;
        disk_history[static_cast<BlockNum>(req.a)].push_back(req.data);
        last_.rv = 0;
        break;
      case NativeSys::kDiskWriteVec: {
        // One multi-block transaction; all blocks land atomically.
        ++disk_write_batches;
        ByteReader r(req.data);
        uint32_t n = r.U32();
        for (uint32_t i = 0; i < n; ++i) {
          BlockNum block = r.U32();
          disk[block] = r.Blob();
          disk_history[block].push_back(disk[block]);
          ++disk_writes;
        }
        last_.rv = 0;
        break;
      }
      case NativeSys::kServerSyncSend:
        server_syncs.push_back(req.data);
        if (on_server_sync) {
          on_server_sync(req.data);
        }
        last_.rv = 0;
        break;
      case NativeSys::kTtyEmit:
        tty_emits.push_back(req.data);
        last_.rv = 0;
        break;
      case NativeSys::kSimTime:
        last_.rv = static_cast<int64_t>(now);
        break;
      case NativeSys::kWriteChan:
        sent.push_back(Sent{req.b, req.a, req.data});
        last_.rv = static_cast<int64_t>(req.data.size());
        break;
      case NativeSys::kAcceptChan:
        accepts.push_back(ChanCreate::Decode(req.data));
        last_.rv = 0;
        break;
      case NativeSys::kSetTimer:
        timers.emplace_back(req.a, req.b);
        last_.rv = 0;
        break;
      case NativeSys::kFindChan: {
        auto it = find_chan.find(req.a);
        last_.rv = it != find_chan.end() ? static_cast<int64_t>(it->second) : 0;
        break;
      }
      case NativeSys::kWhoAmI: {
        ByteWriter w;
        w.U64(who_pid.value);
        w.U32(who_cluster);
        w.U32(who_backup);
        last_.data = w.Take();
        last_.rv = 0;
        break;
      }
      default:
        AURAGEN_PANIC("harness: unsupported syscall");
    }
  }

  NativeProgram& program_;
  SyscallResult last_;
  bool first_ = true;
  bool pending_read_ = false;
  size_t timers_fired_ = 0;
  std::deque<Incoming> incoming_;
};

}  // namespace auragen

#endif  // AURAGEN_TESTS_PROGRAM_HARNESS_H_
