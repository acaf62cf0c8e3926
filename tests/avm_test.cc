// Unit tests for the AVM: memory residency/dirty tracking, interpreter
// semantics, fault behaviour, and the state-capture properties the sync
// protocol depends on.

#include <gtest/gtest.h>

#include <vector>

#include "src/avm/assembler.h"
#include "src/avm/cpu.h"
#include "src/avm/memory.h"
#include "src/base/rng.h"
#include "src/kernel/avm_body.h"

namespace auragen {
namespace {

TEST(GuestMemory, FaultsOnNonResident) {
  GuestMemory mem;
  uint8_t v = 0;
  EXPECT_EQ(mem.Read8(100, &v), GuestMemory::Access::kFault);
  EXPECT_EQ(mem.fault_page(), 0u);
  mem.MaterializeZero(0, /*dirty=*/false);
  EXPECT_EQ(mem.Read8(100, &v), GuestMemory::Access::kOk);
  EXPECT_EQ(v, 0);
}

TEST(GuestMemory, WriteSetsDirty) {
  GuestMemory mem;
  mem.MaterializeZero(2, false);
  EXPECT_FALSE(mem.Dirty(2));
  EXPECT_EQ(mem.Write32(2 * kAvmPageBytes + 4, 0xdead), GuestMemory::Access::kOk);
  EXPECT_TRUE(mem.Dirty(2));
  EXPECT_EQ(mem.DirtyPages(), (std::vector<PageNum>{2}));
  mem.ClearDirty(2);
  EXPECT_FALSE(mem.Dirty(2));
}

TEST(GuestMemory, CrossPageAccess) {
  GuestMemory mem;
  mem.MaterializeZero(0, false);
  // A 32-bit write straddling pages 0 and 1 faults until page 1 exists.
  uint32_t addr = kAvmPageBytes - 2;
  EXPECT_EQ(mem.Write32(addr, 0x11223344), GuestMemory::Access::kFault);
  EXPECT_EQ(mem.fault_page(), 1u);
  mem.MaterializeZero(1, false);
  EXPECT_EQ(mem.Write32(addr, 0x11223344), GuestMemory::Access::kOk);
  uint32_t v = 0;
  EXPECT_EQ(mem.Read32(addr, &v), GuestMemory::Access::kOk);
  EXPECT_EQ(v, 0x11223344u);
  EXPECT_TRUE(mem.Dirty(0));
  EXPECT_TRUE(mem.Dirty(1));
}

TEST(GuestMemory, OutOfRange) {
  GuestMemory mem;
  uint8_t v;
  EXPECT_EQ(mem.Read8(kAvmMemBytes, &v), GuestMemory::Access::kOutOfRange);
  EXPECT_EQ(mem.Write32(kAvmMemBytes - 2, 1), GuestMemory::Access::kOutOfRange);
}

TEST(GuestMemory, EvictAllDropsEverything) {
  GuestMemory mem;
  mem.InstallPageDirty(3, Bytes(kAvmPageBytes, 7));
  EXPECT_EQ(mem.resident_count(), 1u);
  mem.EvictAll();
  EXPECT_EQ(mem.resident_count(), 0u);
  EXPECT_TRUE(mem.DirtyPages().empty());
  uint8_t v;
  EXPECT_EQ(mem.Read8(3 * kAvmPageBytes, &v), GuestMemory::Access::kFault);
}

TEST(GuestMemory, ExtractInstallRoundTrip) {
  GuestMemory mem;
  Bytes content(kAvmPageBytes);
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<uint8_t>(i);
  }
  mem.InstallPage(9, content);
  EXPECT_FALSE(mem.Dirty(9));
  EXPECT_EQ(mem.ExtractPage(9), content);
}

// --- interpreter ---

CpuContext RunProgram(const std::string& src, GuestMemory* mem_out = nullptr,
                      int max_steps = 100000) {
  Executable exe = MustAssemble(src);
  AvmBody body(std::make_shared<const Executable>(exe));
  CpuContext ctx = body.context();
  GuestMemory& mem = body.memory();
  for (int i = 0; i < max_steps; ++i) {
    StepResult r = Step(ctx, mem);
    if (r.kind == StepKind::kHalt) {
      if (mem_out != nullptr) {
        *mem_out = mem;
      }
      return ctx;
    }
    if (r.kind == StepKind::kPageFault) {
      mem.MaterializeZero(r.fault_page, false);
      continue;
    }
    EXPECT_EQ(r.kind, StepKind::kOk) << "unexpected trap at step " << i;
    if (r.kind != StepKind::kOk) {
      break;
    }
  }
  return ctx;
}

TEST(Cpu, Arithmetic) {
  CpuContext ctx = RunProgram(R"(
    li r1, 10
    li r2, 3
    add r3, r1, r2    ; 13
    sub r4, r1, r2    ; 7
    mul r5, r1, r2    ; 30
    div r6, r1, r2    ; 3
    mod r7, r1, r2    ; 1
    halt
)");
  EXPECT_EQ(ctx.regs[3], 13u);
  EXPECT_EQ(ctx.regs[4], 7u);
  EXPECT_EQ(ctx.regs[5], 30u);
  EXPECT_EQ(ctx.regs[6], 3u);
  EXPECT_EQ(ctx.regs[7], 1u);
}

TEST(Cpu, SignedComparisonsAndShifts) {
  CpuContext ctx = RunProgram(R"(
    li r1, -5
    li r2, 3
    slt r3, r1, r2    ; 1 (signed)
    sltu r4, r1, r2   ; 0 (unsigned: 0xfffffffb > 3)
    li r5, 1
    li r6, 4
    shl r7, r5, r6    ; 16
    shr r8, r7, r6    ; 1
    halt
)");
  EXPECT_EQ(ctx.regs[3], 1u);
  EXPECT_EQ(ctx.regs[4], 0u);
  EXPECT_EQ(ctx.regs[7], 16u);
  EXPECT_EQ(ctx.regs[8], 1u);
}

TEST(Cpu, LoadsStoresAndData) {
  GuestMemory mem;
  CpuContext ctx = RunProgram(R"(
start:
    li r1, value
    ld r2, r1, 0
    addi r2, r2, 1
    st r2, r1, 0
    ldb r3, r1, 0
    halt
.data
value: .word 41
)", &mem);
  EXPECT_EQ(ctx.regs[2], 42u);
  EXPECT_EQ(ctx.regs[3], 42u);
}

TEST(Cpu, CallAndReturn) {
  CpuContext ctx = RunProgram(R"(
start:
    li r1, 5
    call double
    mov r4, r0
    halt
double:
    add r0, r1, r1
    ret
)");
  EXPECT_EQ(ctx.regs[4], 10u);
}

TEST(Cpu, PushPop) {
  CpuContext ctx = RunProgram(R"(
start:
    li r1, 111
    li r2, 222
    push r1
    push r2
    pop r3
    pop r4
    halt
)");
  EXPECT_EQ(ctx.regs[3], 222u);
  EXPECT_EQ(ctx.regs[4], 111u);
}

TEST(Cpu, DivideByZeroFaults) {
  Executable exe = MustAssemble(R"(
    li r1, 1
    li r2, 0
    div r3, r1, r2
    halt
)");
  AvmBody body(std::make_shared<const Executable>(exe));
  CpuContext ctx = body.context();
  Step(ctx, body.memory());
  Step(ctx, body.memory());
  StepResult r = Step(ctx, body.memory());
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_STREQ(r.fault_reason, "divide by zero");
}

TEST(Cpu, IllegalOpcodeFaults) {
  GuestMemory mem;
  mem.MaterializeZero(0, false);
  mem.Write8(0, 0xee);  // not a valid opcode
  CpuContext ctx;
  StepResult r = Step(ctx, mem);
  EXPECT_EQ(r.kind, StepKind::kFault);
}

TEST(Cpu, SyscallTrapAdvancesPc) {
  Executable exe = MustAssemble("sys yield\nhalt\n");
  AvmBody body(std::make_shared<const Executable>(exe));
  CpuContext ctx = body.context();
  StepResult r = Step(ctx, body.memory());
  EXPECT_EQ(r.kind, StepKind::kSyscall);
  EXPECT_EQ(r.sys_num, static_cast<uint32_t>(Sys::kYield));
  EXPECT_EQ(ctx.pc, kAvmInstrBytes);
}

TEST(Cpu, ContextSerializationRoundTrip) {
  CpuContext ctx;
  for (uint32_t i = 0; i < kAvmNumRegs; ++i) {
    ctx.regs[i] = i * 1000 + 7;
  }
  ctx.pc = 0x1234;
  ByteWriter w;
  ctx.Serialize(w);
  ByteReader r(w.bytes());
  CpuContext back = CpuContext::Deserialize(r);
  EXPECT_TRUE(ctx == back);
}

TEST(Cpu, PageFaultHasNoSideEffects) {
  // A store to a non-resident page leaves pc and registers untouched.
  Executable exe = MustAssemble(R"(
    li r1, 7
    li r2, 0xC000
    st r1, r2, 0
    halt
)");
  AvmBody body(std::make_shared<const Executable>(exe));
  CpuContext ctx = body.context();
  GuestMemory& mem = body.memory();
  Step(ctx, mem);
  Step(ctx, mem);
  uint32_t pc_before = ctx.pc;
  StepResult r = Step(ctx, mem);
  ASSERT_EQ(r.kind, StepKind::kPageFault);
  EXPECT_EQ(ctx.pc, pc_before);
  mem.MaterializeZero(r.fault_page, false);
  EXPECT_EQ(Step(ctx, mem).kind, StepKind::kOk);  // re-executes cleanly
  uint32_t v;
  mem.Read32(0xC000, &v);
  EXPECT_EQ(v, 7u);
}

// --- RunToTrap: one call, identical to a Step loop ---

// The reference RunToTrap must equal: Step until a non-kOk result or until
// `budget` instructions retired.
StepResult StepLoop(CpuContext& ctx, GuestMemory& mem, uint64_t budget, uint64_t* retired) {
  *retired = 0;
  while (*retired < budget) {
    StepResult r = Step(ctx, mem);
    if (r.kind != StepKind::kOk) {
      return r;
    }
    ++*retired;
  }
  return StepResult{};
}

void ExpectSameMemory(const GuestMemory& a, const GuestMemory& b) {
  EXPECT_EQ(a.fault_page(), b.fault_page());
  EXPECT_EQ(a.write_generation(), b.write_generation());
  EXPECT_EQ(a.flushed_generation(), b.flushed_generation());
  for (PageNum p = 0; p < kAvmNumPages; ++p) {
    ASSERT_EQ(a.Resident(p), b.Resident(p)) << "page " << p;
    EXPECT_EQ(a.page_generation(p), b.page_generation(p)) << "page " << p;
    if (a.Resident(p)) {
      ASSERT_EQ(a.ExtractPage(p), b.ExtractPage(p)) << "page " << p;
    }
  }
}

void ExpectSameStep(const StepResult& a, const StepResult& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.sys_num, b.sys_num);
  EXPECT_EQ(a.fault_page, b.fault_page);
  EXPECT_STREQ(a.fault_reason, b.fault_reason);
}

// Runs RunToTrap and the Step loop from the same state, checks that
// context, memory, result and retired count agree, and leaves that common
// state in ctx/mem.
StepResult RunBoth(CpuContext& ctx, GuestMemory& mem, uint64_t budget, uint64_t* retired) {
  CpuContext loop_ctx = ctx;
  GuestMemory loop_mem = mem;
  uint64_t loop_retired = 0;
  StepResult want = StepLoop(loop_ctx, loop_mem, budget, &loop_retired);
  StepResult got = RunToTrap(ctx, mem, budget, retired);
  EXPECT_EQ(*retired, loop_retired) << "budget " << budget;
  ExpectSameStep(got, want);
  EXPECT_TRUE(ctx == loop_ctx) << "budget " << budget;
  ExpectSameMemory(mem, loop_mem);
  return got;
}

// Random programs live in the first kTextPages pages. r13 is never a
// destination, so r13-based loads and stores reach text and data pages
// (including the executing page); other bases mostly land out of range.
constexpr PageNum kTextPages = 4;
constexpr uint32_t kTextInstrs = kTextPages * kAvmPageBytes / kAvmInstrBytes;
constexpr uint8_t kZeroReg = 13;

Instr RandomInstr(Rng& rng) {
  static const Op kOps[] = {
      Op::kNop, Op::kLi,  Op::kMov, Op::kLd,  Op::kLdb, Op::kSt,   Op::kStb, Op::kAdd,
      Op::kSub, Op::kMul, Op::kDiv, Op::kMod, Op::kAnd, Op::kOr,   Op::kXor, Op::kShl,
      Op::kShr, Op::kSlt, Op::kSltu, Op::kAddi, Op::kJmp, Op::kBeq, Op::kBne, Op::kBlt,
      Op::kBge, Op::kJal, Op::kJr,  Op::kSys, Op::kHalt};
  Instr in;
  in.op = kOps[rng.Below(sizeof(kOps) / sizeof(kOps[0]))];
  in.ra = static_cast<uint8_t>(rng.Below(kZeroReg));
  in.rb = static_cast<uint8_t>(rng.Below(kAvmNumRegs));
  in.rc = static_cast<uint8_t>(rng.Below(kAvmNumRegs));
  in.imm = static_cast<uint32_t>(rng.Below(1024));
  switch (in.op) {
    case Op::kLd:
    case Op::kLdb:
    case Op::kSt:
    case Op::kStb:
      if (rng.Chance(0.8)) {
        in.rb = kZeroReg;
        in.imm = static_cast<uint32_t>(rng.Below((kTextPages + 2) * kAvmPageBytes));
      }
      break;
    case Op::kJmp:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kJal:
      // Mostly aligned targets inside the text; a few unaligned or far.
      in.imm = rng.Chance(0.9) ? static_cast<uint32_t>(rng.Below(kTextInstrs)) * kAvmInstrBytes
                               : static_cast<uint32_t>(rng.Next());
      break;
    case Op::kHalt:
      // Only a quarter stay halts, so runs get long; the rest become an
      // illegal opcode or a bad register.
      if (rng.Chance(0.5)) {
        in.op = static_cast<Op>(0xee);
      } else if (rng.Chance(0.5)) {
        in.op = Op::kAdd;
        in.rc = 20;
      }
      break;
    default:
      break;
  }
  return in;
}

Bytes RandomTextPage(Rng& rng) {
  Bytes page(kAvmPageBytes);
  for (uint32_t off = 0; off < kAvmPageBytes; off += kAvmInstrBytes) {
    EncodeInstr(RandomInstr(rng), page.data() + off);
  }
  return page;
}

TEST(RunToTrap, MatchesStepLoopOnRandomPrograms) {
  uint64_t traps = 0;
  uint64_t retired_total = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<Bytes> text;
    GuestMemory mem;
    for (PageNum p = 0; p < kTextPages; ++p) {
      text.push_back(RandomTextPage(rng));
      // Some text pages start evicted and fault in on first fetch.
      if (rng.Chance(0.8)) {
        mem.InstallPage(p, text[p]);
      }
    }
    CpuContext ctx;
    for (uint32_t r = 0; r < kAvmNumRegs; ++r) {
      ctx.regs[r] = rng.Chance(0.7) ? static_cast<uint32_t>(rng.Below(8))
                                    : static_cast<uint32_t>(rng.Next());
    }
    ctx.regs[kZeroReg] = 0;
    ctx.pc = static_cast<uint32_t>(rng.Below(kTextInstrs)) * kAvmInstrBytes;

    // Every budget from 1 to 64 from the same starting state.
    for (uint64_t budget = 1; budget <= 64; ++budget) {
      CpuContext c = ctx;
      GuestMemory m = mem;
      uint64_t retired = 0;
      RunBoth(c, m, budget, &retired);
      if (HasFailure()) {
        return;
      }
    }

    // Then a long run that resolves each trap the way a kernel would.
    for (int round = 0; round < 40; ++round) {
      uint64_t retired = 0;
      StepResult r = RunBoth(ctx, mem, 1 + rng.Below(96), &retired);
      if (HasFailure()) {
        return;
      }
      retired_total += retired;
      traps += r.kind != StepKind::kOk ? 1 : 0;
      switch (r.kind) {
        case StepKind::kOk:
          break;
        case StepKind::kSyscall:
          ctx.regs[0] = static_cast<uint32_t>(rng.Below(4));
          break;
        case StepKind::kPageFault:
          if (r.fault_page < kTextPages) {
            mem.InstallPage(r.fault_page, text[r.fault_page]);
          } else {
            mem.MaterializeZero(r.fault_page, /*dirty=*/false);
          }
          break;
        case StepKind::kHalt:
        case StepKind::kFault:
          ctx.pc = static_cast<uint32_t>(rng.Below(kTextInstrs)) * kAvmInstrBytes;
          break;
      }
      if (rng.Chance(0.1)) {
        mem.EvictAll();  // recovery: every page, text included, faults back in
      }
      if (rng.Chance(0.1)) {
        mem.ClearAllDirty();  // a sync between runs
      }
    }
  }
  // The generator must actually reach both long runs and traps.
  EXPECT_GT(retired_total, 10'000u);
  EXPECT_GT(traps, 1'000u);
}

TEST(RunToTrap, StoreIntoExecutingPageIsFetched) {
  // st overwrites the low word of the third instruction (a halt) with the
  // opcode and register bytes of `li r2`; the imm word (7) stays. The run
  // must execute the rewritten instruction, not the cached halt.
  GuestMemory mem;
  mem.MaterializeZero(0, false);
  auto put = [&](uint32_t index, Instr in) {
    uint8_t raw[kAvmInstrBytes];
    EncodeInstr(in, raw);
    for (uint32_t i = 0; i < kAvmInstrBytes; ++i) {
      ASSERT_EQ(mem.Write8(index * kAvmInstrBytes + i, raw[i]), GuestMemory::Access::kOk);
    }
  };
  put(0, Instr{Op::kSt, 1, kZeroReg, 0, 2 * kAvmInstrBytes});
  put(1, Instr{Op::kNop, 0, 0, 0, 0});
  put(2, Instr{Op::kHalt, 0, 0, 0, 7});
  put(3, Instr{Op::kHalt, 0, 0, 0, 0});
  CpuContext ctx;
  ctx.regs[1] = static_cast<uint32_t>(Op::kLi) | 2u << 8;
  uint64_t retired = 0;
  StepResult r = RunBoth(ctx, mem, 100, &retired);
  EXPECT_EQ(r.kind, StepKind::kHalt);
  EXPECT_EQ(retired, 3u);
  EXPECT_EQ(ctx.regs[2], 7u);
  EXPECT_EQ(ctx.pc, 3 * kAvmInstrBytes);
}

TEST(RunToTrap, FetchFaultsWhenThePcLeavesForAnEvictedPage) {
  // Page 0 is all nops, page 1 not resident: the run retires one page of
  // instructions, then faults on page 1 with the pc at its first word.
  GuestMemory mem;
  mem.MaterializeZero(0, false);
  CpuContext ctx;
  uint64_t retired = 0;
  StepResult r = RunBoth(ctx, mem, 1000, &retired);
  ASSERT_EQ(r.kind, StepKind::kPageFault);
  EXPECT_EQ(r.fault_page, 1u);
  EXPECT_EQ(retired, kAvmPageBytes / kAvmInstrBytes);
  EXPECT_EQ(ctx.pc, kAvmPageBytes);
  // After page-in the run continues from the faulting fetch.
  mem.MaterializeZero(1, false);
  r = RunBoth(ctx, mem, 5, &retired);
  EXPECT_EQ(r.kind, StepKind::kOk);
  EXPECT_EQ(retired, 5u);
  EXPECT_EQ(ctx.pc, kAvmPageBytes + 5 * kAvmInstrBytes);
}

TEST(RunToTrap, StopsAtBadPcIllegalOpAndDivideByZero) {
  Executable exe = MustAssemble(R"(
    li r1, 1
    li r2, 0
    div r3, r1, r2
    halt
)");
  AvmBody body(std::make_shared<const Executable>(exe));
  CpuContext ctx = body.context();
  uint64_t retired = 0;
  StepResult r = RunBoth(ctx, body.memory(), 100, &retired);
  EXPECT_EQ(r.kind, StepKind::kFault);
  EXPECT_STREQ(r.fault_reason, "divide by zero");
  EXPECT_EQ(retired, 2u);

  ctx.pc = 3;  // unaligned
  r = RunBoth(ctx, body.memory(), 100, &retired);
  EXPECT_STREQ(r.fault_reason, "bad pc");
  EXPECT_EQ(retired, 0u);

  ctx.pc = kAvmMemBytes;  // past the address space
  r = RunBoth(ctx, body.memory(), 100, &retired);
  EXPECT_STREQ(r.fault_reason, "bad pc");

  ASSERT_EQ(body.memory().Write8(3 * kAvmInstrBytes, 0xee), GuestMemory::Access::kOk);
  ctx.pc = 3 * kAvmInstrBytes;
  r = RunBoth(ctx, body.memory(), 100, &retired);
  EXPECT_STREQ(r.fault_reason, "illegal opcode");
}

TEST(AvmBody, BunchCountPastAddressSpaceFaults) {
  // count * 4 overflows 32 bits for counts >= 2^30; 0x40000001 used to wrap
  // to a 4-byte read and bunch a single fd.
  Executable exe = MustAssemble(R"(
    li r1, 0x100
    li r2, 0x40000001
    sys bunch
    halt
)");
  AvmBody body(std::make_shared<const Executable>(exe));
  BodyRun run = body.Run(1000);
  ASSERT_EQ(run.kind, BodyRun::Kind::kFault);
  EXPECT_STREQ(run.fault_reason, "syscall buffer out of range");

  // An in-range count still copies count words.
  Executable ok = MustAssemble(R"(
    li r1, 0x100
    li r2, 3
    sys bunch
    halt
)");
  AvmBody fine(std::make_shared<const Executable>(ok));
  run = fine.Run(1000);
  while (run.kind == BodyRun::Kind::kPageFault) {
    fine.InstallPage(run.fault_page, /*known=*/false, {});
    run = fine.Run(1000);
  }
  ASSERT_EQ(run.kind, BodyRun::Kind::kSyscall);
  EXPECT_EQ(run.request.num, Sys::kBunch);
  EXPECT_EQ(run.request.data.size(), 12u);
}

TEST(AvmBody, ForkClonesMemoryAndDiffersR0) {
  Executable exe = MustAssemble(R"(
    li r5, 99
    li r2, 0x8000
    st r5, r2, 0
    sys fork
    halt
)");
  AvmBody parent(std::make_shared<const Executable>(exe));
  BodyRun run = parent.Run(1000);
  while (run.kind == BodyRun::Kind::kPageFault) {
    parent.InstallPage(run.fault_page, /*known=*/false, {});
    run = parent.Run(1000);
  }
  ASSERT_EQ(run.kind, BodyRun::Kind::kSyscall);
  ASSERT_EQ(run.request.num, Sys::kFork);
  std::unique_ptr<AvmBody> child = parent.CloneForFork(1234);
  EXPECT_EQ(parent.context().regs[0], 1234u);
  EXPECT_EQ(child->context().regs[0], 0u);
  uint32_t v = 0;
  child->memory().Read32(0x8000, &v);
  EXPECT_EQ(v, 99u);
  // Child pages are all dirty so its first sync ships a full account.
  EXPECT_FALSE(child->memory().DirtyPages().empty());
}

TEST(AvmBody, ImagePagesLoadCleanAndRefillFromTheImage) {
  Executable exe = MustAssemble(R"(
    halt
.data
pad: .space 300
tail: .ascii "image"
)");
  ASSERT_EQ(exe.NumPages(), 2u);
  AvmBody body(std::make_shared<const Executable>(exe));
  // Loaded clean: nothing to ship until the program writes.
  EXPECT_TRUE(body.memory().DirtyPages().empty());
  EXPECT_EQ(body.PageContent(1), exe.PageContent(1));

  // Recovery: a page the server does not know comes from the image inside
  // it (clean) and is zero-filled past it.
  body.EvictAllPages();
  body.InstallPage(1, /*known=*/false, {});
  EXPECT_EQ(body.PageContent(1), exe.PageContent(1));
  body.InstallPage(7, /*known=*/false, {});
  EXPECT_EQ(body.PageContent(7), Bytes(kAvmPageBytes, 0));
  EXPECT_TRUE(body.memory().DirtyPages().empty());
  // A known page wins over the image.
  Bytes written(kAvmPageBytes, 9);
  body.InstallPage(0, /*known=*/true, written);
  EXPECT_EQ(body.PageContent(0), written);
}

TEST(AvmBody, SignalSpillAndReturn) {
  Executable exe = MustAssemble(R"(
    li r1, 5
    li r2, 6
    halt
)");
  AvmBody body(std::make_shared<const Executable>(exe));
  BodyRun run = body.Run(1);  // executed li r1,5
  ASSERT_EQ(run.kind, BodyRun::Kind::kBudget);
  CpuContext before = body.context();
  ASSERT_TRUE(body.EnterSignal(0x40, 14));
  EXPECT_EQ(body.context().pc, 0x40u);
  EXPECT_EQ(body.context().regs[1], 14u);
  body.LeaveSignal();
  EXPECT_TRUE(body.context() == before);
}

TEST(AvmBody, CaptureRewindsBlockedSyscall) {
  Executable exe = MustAssemble(R"(
    li r1, 3
    sys read
    halt
)");
  AvmBody body(std::make_shared<const Executable>(exe));
  BodyRun run = body.Run(100);
  ASSERT_EQ(run.kind, BodyRun::Kind::kSyscall);
  // Blocked in read: capture rewinds to the SYS instruction.
  Bytes ctx_blob = body.CaptureContext();
  ByteReader r(ctx_blob);
  CpuContext captured = CpuContext::Deserialize(r);
  EXPECT_EQ(captured.pc, kAvmInstrBytes);  // the SYS, not past it

  // A restored body re-issues the identical read.
  AvmBody restored(std::make_shared<const Executable>(exe));
  restored.RestoreContext(ctx_blob);
  BodyRun again = restored.Run(100);
  ASSERT_EQ(again.kind, BodyRun::Kind::kSyscall);
  EXPECT_EQ(again.request.num, Sys::kRead);
  EXPECT_EQ(again.request.a, 3u);
}

TEST(Disassemble, CoversCommonOps) {
  Instr in;
  in.op = Op::kAddi;
  in.ra = 1;
  in.rb = 2;
  in.imm = 7;
  EXPECT_EQ(Disassemble(in), "addi r1, r2, 7");
  in.op = Op::kSys;
  in.imm = 4;
  EXPECT_EQ(Disassemble(in), "sys 4");
}

}  // namespace
}  // namespace auragen
