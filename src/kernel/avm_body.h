// AvmBody: a Body backed by the AVM interpreter.
//
// Process state = CpuContext (context blob) + GuestMemory (paged state),
// exactly the PCB/page-account split of §7.7-§7.8. Transparency (§3.3)
// falls out: the guest program contains no fault-tolerance code at all.

#ifndef AURAGEN_SRC_KERNEL_AVM_BODY_H_
#define AURAGEN_SRC_KERNEL_AVM_BODY_H_

#include <memory>
#include <optional>

#include "src/avm/cpu.h"
#include "src/avm/memory.h"
#include "src/avm/program.h"
#include "src/kernel/body.h"

namespace auragen {

class AvmBody : public Body {
 public:
  // Loads the image at address 0 with pages marked dirty (they must reach
  // the page account at the first sync), pc at entry, sp at the stack top.
  explicit AvmBody(const Executable& exe);

  BodyRun Run(uint64_t budget) override;
  void CompleteSyscall(SyscallResult result) override;

  bool SyncReady() const override { return !pending_copy_.has_value(); }
  // When blocked in a read/which (awaiting_completion_), the captured pc is
  // rewound to the SYS instruction so a restored backup re-issues the same
  // side-effect-free call — the §7.8 "virtual address of the next
  // instruction to be executed" is the trap itself.
  Bytes CaptureContext() const override;
  void RestoreContext(const Bytes& context) override;

  std::vector<PageNum> DirtyPages() const override;
  Bytes PageContent(PageNum page) const override;
  void ClearDirty() override;
  std::vector<std::pair<PageNum, Bytes>> CaptureFlushPages(bool full) override {
    return mem_.CaptureFlushPages(full);
  }
  void EvictAllPages() override;
  void InstallPage(PageNum page, bool known, const Bytes& content) override;
  bool NeedsServerPaging() const override;

  bool EnterSignal(uint32_t handler, uint32_t signal_number) override;

  // SYS sigret: restores the context spilled by EnterSignal and clears the
  // pending-syscall latch (the kernel must not also call CompleteSyscall).
  void LeaveSignal();

  // Interrupts a blocked side-effect-free syscall (read/which) so a signal
  // can be delivered: the pc rewinds to the SYS, which re-executes after the
  // handler returns — the AVM equivalent of UNIX's restartable syscalls.
  void AbortBlockedSyscall();

  // Fork support: clones memory and registers; the parent's clone sees
  // `parent_rv` in r0, the child's sees 0. All of the child's pages are
  // dirty so its first sync builds a complete page account (§7.7).
  std::unique_ptr<AvmBody> CloneForFork(uint32_t parent_rv);

  // Test/diagnostic access.
  const CpuContext& context() const { return ctx_; }
  GuestMemory& memory() { return mem_; }

  // Work cost of a syscall trap relative to one instruction.
  static constexpr uint64_t kSyscallWork = 20;

 private:
  // Builds the normalized request for the trapped syscall. Returns nullopt
  // and rewinds the pc when reading argument memory faults (the SYS will
  // re-trap after page-in).
  std::optional<BodyRun> MaterializeSyscall(uint32_t sys_num, uint64_t work);

  CpuContext ctx_;
  GuestMemory mem_;

  // Deferred completion of a read-like syscall: data to copy into guest
  // memory on the next Run (so the copy can fault and retry).
  struct PendingCopy {
    uint32_t addr = 0;
    uint32_t max = 0;
    Bytes data;
  };
  std::optional<PendingCopy> pending_copy_;
  bool awaiting_completion_ = false;

  // During normal execution a fault means fresh stack/heap growth; zero-fill
  // locally. After EvictAllPages (recovery) every fault must consult the
  // page server (§7.10.2), which owns the known/zero decision.
  bool demand_from_server_ = false;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_KERNEL_AVM_BODY_H_
