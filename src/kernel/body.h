// Body: the user-mode part of a process, as the kernel drives it.
//
// The kernel never interprets what a body computes; it only advances it,
// services its system calls, and captures/restores its state. Two
// implementations exist:
//   AvmBody     — an AVM guest program (ordinary user processes);
//   NativeBody  — C++ state machines (system and peripheral servers, §7.6).
//
// The state model matches §7.7/§7.8: a small *context* blob (registers /
// resume token — what the sync message carries) plus *pages* of bulk state
// (what the paging mechanism ships to the page server). Peripheral servers
// opt out of paging (§7.9) and are handled by the explicit-sync path
// instead; see native_body.h.

#ifndef AURAGEN_SRC_KERNEL_BODY_H_
#define AURAGEN_SRC_KERNEL_BODY_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/codec.h"
#include "src/base/types.h"
#include "src/avm/isa.h"

namespace auragen {

// Normalized system-call request, independent of the body's calling
// convention. `data` carries outbound payload (write bodies, open names).
struct SyscallRequest {
  Sys num = Sys::kYield;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  Bytes data;
};

struct SyscallResult {
  int64_t rv = 0;   // return value; negative values are -Errc
  Bytes data;       // inbound payload (read results)
};

// Outcome of advancing a body.
struct BodyRun {
  enum class Kind : uint8_t {
    kBudget,     // consumed its work budget; still runnable
    kSyscall,    // trapped; `request` wants servicing
    kPageFault,  // needs `fault_page` resident; no side effects occurred
    kExited,     // terminated with `exit_status`
    kFault,      // deterministic program error (recurs identically on replay)
  };
  Kind kind = Kind::kBudget;
  uint64_t work = 0;             // abstract work units consumed (time accounting)
  SyscallRequest request;        // kSyscall
  PageNum fault_page = 0;        // kPageFault
  int32_t exit_status = 0;       // kExited
  const char* fault_reason = ""; // kFault
};

class Body {
 public:
  virtual ~Body() = default;

  // Advances until the budget is spent or a trap occurs. A body whose
  // previous Run returned kSyscall must receive CompleteSyscall before the
  // next Run.
  virtual BodyRun Run(uint64_t budget) = 0;

  // Delivers the result of the pending syscall. Side effects that can page-
  // fault (copying read data into guest memory) are deferred into the next
  // Run so faults retry uniformly. The result is taken by value so its data
  // buffer moves in rather than being copied.
  virtual void CompleteSyscall(SyscallResult result) = 0;

  // --- state capture (what the sync message carries, §7.8) ---
  // True when the body is at a capturable point: quiescent, or parked in a
  // side-effect-free blocking syscall (read/which) that capture represents
  // by rewinding to re-issue it.
  virtual bool SyncReady() const = 0;
  virtual Bytes CaptureContext() const = 0;
  virtual void RestoreContext(const Bytes& context) = 0;

  // --- paged bulk state (what goes to the page server, §7.6) ---
  // Pages dirtied since the last ClearDirty. Empty for explicit-sync bodies.
  virtual std::vector<PageNum> DirtyPages() const = 0;
  virtual Bytes PageContent(PageNum page) const = 0;
  virtual void ClearDirty() = 0;
  // Copy-on-write flush capture for the sync pipeline: snapshots the pages
  // to ship at this sync — pages dirtied since the previous capture, or
  // every resident page when `full` (stop-and-copy) — and advances the
  // body's dirty tracking so writes after the capture belong to the next
  // increment. The returned contents are immutable copies the caller may
  // drain to the outgoing queue asynchronously.
  virtual std::vector<std::pair<PageNum, Bytes>> CaptureFlushPages(bool full) {
    std::vector<std::pair<PageNum, Bytes>> out;
    for (PageNum p : DirtyPages()) {
      out.emplace_back(p, PageContent(p));
    }
    ClearDirty();
    (void)full;
    return out;
  }
  // Recovery: drop all pages; subsequent Runs fault them back in.
  virtual void EvictAllPages() = 0;
  // Page-in. `known=false` means the page server never saw this page: the
  // body materializes it deterministically (an AVM body from its image
  // inside it, zero fill past it).
  virtual void InstallPage(PageNum page, bool known, const Bytes& content) = 0;

  // True after EvictAllPages: faults must be resolved through the page
  // server (§7.10.2). False during normal execution, where a fault can only
  // mean fresh zero-fill stack/heap growth resolved locally.
  virtual bool NeedsServerPaging() const = 0;

  // Asynchronous-signal support (§7.5.2). Divert to `handler`; the previous
  // context is saved in body-owned state so it is captured by sync. Bodies
  // that cannot take signals return false (signal stays ignored).
  virtual bool EnterSignal(uint32_t handler, uint32_t signal_number) = 0;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_KERNEL_BODY_H_
