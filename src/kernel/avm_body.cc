#include "src/kernel/avm_body.h"

#include <utility>

namespace auragen {

AvmBody::AvmBody(std::shared_ptr<const Executable> exe) : exe_(std::move(exe)) {
  AURAGEN_CHECK(exe_ != nullptr) << "AvmBody without an executable";
  for (PageNum p = 0; p < exe_->NumPages(); ++p) {
    mem_.InstallPage(p, exe_->PageContent(p));
  }
  ctx_.pc = exe_->entry;
  ctx_.regs[kSpReg] = kStackTop;
}

BodyRun AvmBody::Run(uint64_t budget) {
  AURAGEN_CHECK(!awaiting_completion_) << "Run before CompleteSyscall";
  uint64_t work = 0;

  // Apply a deferred read-data copy first; it may fault and retry.
  if (pending_copy_.has_value()) {
    if (!pending_copy_->data.empty()) {
      GuestMemory::Access a = mem_.WriteRange(pending_copy_->addr, pending_copy_->data);
      if (a == GuestMemory::Access::kFault) {
        BodyRun r;
        r.kind = BodyRun::Kind::kPageFault;
        r.fault_page = mem_.fault_page();
        r.work = 0;
        return r;
      }
      if (a == GuestMemory::Access::kOutOfRange) {
        BodyRun r;
        r.kind = BodyRun::Kind::kFault;
        r.fault_reason = "read buffer out of range";
        return r;
      }
    }
    BufferPool::Get().Release(std::move(pending_copy_->data));
    pending_copy_.reset();
  }

  StepResult step = RunToTrap(ctx_, mem_, budget, &work);
  switch (step.kind) {
    case StepKind::kOk:
      break;  // budget exhausted
    case StepKind::kSyscall: {
      work += kSyscallWork;
      std::optional<BodyRun> run = MaterializeSyscall(step.sys_num, work);
      if (run.has_value()) {
        return std::move(*run);
      }
      // Argument copy faulted: pc was rewound to re-trap; report the fault.
      BodyRun r;
      r.kind = BodyRun::Kind::kPageFault;
      r.fault_page = mem_.fault_page();
      r.work = work;
      return r;
    }
    case StepKind::kPageFault: {
      BodyRun r;
      r.kind = BodyRun::Kind::kPageFault;
      r.fault_page = step.fault_page;
      r.work = work;
      return r;
    }
    case StepKind::kHalt: {
      BodyRun r;
      r.kind = BodyRun::Kind::kExited;
      r.exit_status = static_cast<int32_t>(ctx_.regs[1]);
      r.work = work + 1;
      return r;
    }
    case StepKind::kFault: {
      BodyRun r;
      r.kind = BodyRun::Kind::kFault;
      r.fault_reason = step.fault_reason;
      r.work = work + 1;
      return r;
    }
  }

  BodyRun r;
  r.kind = BodyRun::Kind::kBudget;
  r.work = work;
  return r;
}

std::optional<BodyRun> AvmBody::MaterializeSyscall(uint32_t sys_num, uint64_t work) {
  BodyRun run;
  run.kind = BodyRun::Kind::kSyscall;
  run.work = work;
  SyscallRequest& req = run.request;
  req.num = static_cast<Sys>(sys_num);
  req.a = ctx_.regs[1];
  req.b = ctx_.regs[2];
  req.c = ctx_.regs[3];

  auto read_guest = [&](uint32_t addr, uint64_t len) -> bool {
    req.data = BufferPool::Get().Acquire(len <= kAvmMemBytes ? len : 0);
    // A length past the address space cannot fit anywhere; checking it
    // before narrowing keeps huge counts from wrapping into short reads.
    GuestMemory::Access a = len > kAvmMemBytes
                                ? GuestMemory::Access::kOutOfRange
                                : mem_.ReadRange(addr, static_cast<uint32_t>(len), &req.data);
    if (a == GuestMemory::Access::kOk) {
      return true;
    }
    if (a == GuestMemory::Access::kOutOfRange) {
      // Deterministic program error.
      run.kind = BodyRun::Kind::kFault;
      run.fault_reason = "syscall buffer out of range";
      return true;  // report `run` as-is
    }
    // Page fault: rewind so the SYS re-executes after page-in.
    ctx_.pc -= kAvmInstrBytes;
    return false;
  };

  switch (req.num) {
    case Sys::kOpen:
      // r1 = name ptr, r2 = name len.
      if (!read_guest(static_cast<uint32_t>(req.a), static_cast<uint32_t>(req.b))) {
        return std::nullopt;
      }
      break;
    case Sys::kWrite:
    case Sys::kWritev:
      // r1 = fd, r2 = buf, r3 = len.
      if (!read_guest(static_cast<uint32_t>(req.b), static_cast<uint32_t>(req.c))) {
        return std::nullopt;
      }
      break;
    case Sys::kBunch:
      // r1 = ptr to fd words, r2 = count.
      if (!read_guest(static_cast<uint32_t>(req.a), req.b * 4)) {
        return std::nullopt;
      }
      break;
    case Sys::kRead:
      // r1 = fd, r2 = buf, r3 = max. Data lands via deferred copy.
      break;
    case Sys::kSigret: {
      // Restore the interrupted context from the signal save area. Handled
      // entirely inside the body; no kernel involvement needed — but we
      // still surface it as a syscall so the kernel can account for it and
      // clear its in-signal bookkeeping.
      break;
    }
    default:
      break;
  }
  awaiting_completion_ = true;
  return run;
}

void AvmBody::CompleteSyscall(SyscallResult result) {
  AURAGEN_CHECK(awaiting_completion_) << "CompleteSyscall without pending syscall";
  awaiting_completion_ = false;
  ctx_.regs[0] = static_cast<uint32_t>(result.rv);
  if (!result.data.empty()) {
    // Defer the copy into guest memory; Run applies (and can fault/retry)
    // and then hands the buffer back to the pool.
    PendingCopy copy;
    copy.addr = ctx_.regs[2];  // read(fd, buf, max): r2 = buf
    copy.data = std::move(result.data);
    pending_copy_ = std::move(copy);
  } else {
    BufferPool::Get().Release(std::move(result.data));
  }
}

Bytes AvmBody::CaptureContext() const {
  AURAGEN_CHECK(!pending_copy_.has_value()) << "sync with an unapplied read result";
  CpuContext snapshot = ctx_;
  if (awaiting_completion_) {
    snapshot.pc -= kAvmInstrBytes;  // re-execute the blocking SYS on restore
  }
  ByteWriter w;
  snapshot.Serialize(w);
  return w.Take();
}

void AvmBody::RestoreContext(const Bytes& context) {
  ByteReader r(context);
  ctx_ = CpuContext::Deserialize(r);
  awaiting_completion_ = false;
  pending_copy_.reset();
}

std::vector<PageNum> AvmBody::DirtyPages() const { return mem_.DirtyPages(); }

Bytes AvmBody::PageContent(PageNum page) const { return mem_.ExtractPage(page); }

void AvmBody::ClearDirty() { mem_.ClearAllDirty(); }

void AvmBody::EvictAllPages() {
  mem_.EvictAll();
  demand_from_server_ = true;
}

void AvmBody::InstallPage(PageNum page, bool known, const Bytes& content) {
  if (known) {
    mem_.InstallPage(page, content);
  } else if (page < exe_->NumPages()) {
    // The page server never saw it, so the process never wrote it since
    // load: the executable backs it, clean.
    mem_.InstallPage(page, exe_->PageContent(page));
  } else {
    // Past the image and never seen: deterministic zero fill. Mark dirty only
    // when materialized locally during normal execution so it reaches the
    // account at the next sync; a server-mediated zero page is already
    // "known missing" and stays clean until written.
    mem_.MaterializeZero(page, /*dirty=*/!demand_from_server_);
  }
}

bool AvmBody::NeedsServerPaging() const { return demand_from_server_; }

bool AvmBody::EnterSignal(uint32_t handler, uint32_t signal_number) {
  // Spill the interrupted context into the user-memory save area (so it is
  // part of the paged state, §7.5.2), then vector to the handler. The save
  // area is a reserved page; zero-filling it when non-resident is
  // deterministic because nothing else lives there.
  PageNum save_page = PageOf(kSignalSaveBase);
  if (!mem_.Resident(save_page)) {
    mem_.MaterializeZero(save_page, /*dirty=*/false);
  }
  uint32_t addr = kSignalSaveBase;
  for (uint32_t i = 0; i < kAvmNumRegs; ++i) {
    AURAGEN_CHECK(mem_.Write32(addr, ctx_.regs[i]) == GuestMemory::Access::kOk);
    addr += 4;
  }
  AURAGEN_CHECK(mem_.Write32(addr, ctx_.pc) == GuestMemory::Access::kOk);
  ctx_.regs[1] = signal_number;
  ctx_.pc = handler;
  return true;
}

void AvmBody::AbortBlockedSyscall() {
  AURAGEN_CHECK(awaiting_completion_ && !pending_copy_.has_value())
      << "abort of a non-restartable syscall";
  ctx_.pc -= kAvmInstrBytes;
  awaiting_completion_ = false;
}

void AvmBody::LeaveSignal() {
  // SYS sigret: restore the interrupted context. The save page is resident —
  // the handler entered via EnterSignal, which spilled into it.
  awaiting_completion_ = false;
  uint32_t addr = kSignalSaveBase;
  for (uint32_t i = 0; i < kAvmNumRegs; ++i) {
    AURAGEN_CHECK(mem_.Read32(addr, &ctx_.regs[i]) == GuestMemory::Access::kOk);
    addr += 4;
  }
  AURAGEN_CHECK(mem_.Read32(addr, &ctx_.pc) == GuestMemory::Access::kOk);
}

std::unique_ptr<AvmBody> AvmBody::CloneForFork(uint32_t parent_rv) {
  auto child = std::make_unique<AvmBody>(*this);
  // The fork syscall completion wrote r0 already at the kernel's direction;
  // here we only differentiate child vs parent return values.
  child->ctx_.regs[0] = 0;
  child->awaiting_completion_ = false;
  child->pending_copy_.reset();
  ctx_.regs[0] = parent_rv;
  // Child pages must all reach the page server at its first sync.
  for (PageNum p = 0; p < kAvmNumPages; ++p) {
    if (child->mem_.Resident(p)) {
      Bytes content = child->mem_.ExtractPage(p);
      child->mem_.InstallPageDirty(p, content);
    }
  }
  return child;
}

}  // namespace auragen
