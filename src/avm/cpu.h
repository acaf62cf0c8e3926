// AVM interpreter.
//
// The CPU is deliberately a pure function: Step(context, memory) executes
// one instruction and reports what happened; RunToTrap(context, memory,
// budget) executes up to `budget` of them in one call and stops at the
// first that does not retire normally. Both run the same instruction body,
// so a RunToTrap call is exactly a Step loop that stops at the first
// non-kOk result. All durable state lives in CpuContext (the register part
// of the PCB, §7.7) and GuestMemory (the page account, §7.6) — exactly the
// two things the sync protocol ships. An instruction that page-faults has
// *no* side effects and leaves the PC unchanged, so it re-executes cleanly
// after page-in.

#ifndef AURAGEN_SRC_AVM_CPU_H_
#define AURAGEN_SRC_AVM_CPU_H_

#include <cstdint>
#include <string>

#include "src/base/codec.h"
#include "src/avm/isa.h"
#include "src/avm/memory.h"

namespace auragen {

// Register context. This plus the guest memory is the complete user-mode
// state of a process; both serialize bit-exactly.
struct CpuContext {
  uint32_t regs[kAvmNumRegs] = {};
  uint32_t pc = 0;

  void Serialize(ByteWriter& w) const {
    for (uint32_t r : regs) {
      w.U32(r);
    }
    w.U32(pc);
  }
  static CpuContext Deserialize(ByteReader& r) {
    CpuContext c;
    for (uint32_t& reg : c.regs) {
      reg = r.U32();
    }
    c.pc = r.U32();
    return c;
  }
  friend bool operator==(const CpuContext& a, const CpuContext& b) {
    for (uint32_t i = 0; i < kAvmNumRegs; ++i) {
      if (a.regs[i] != b.regs[i]) {
        return false;
      }
    }
    return a.pc == b.pc;
  }
};

enum class StepKind : uint8_t {
  kOk,         // instruction retired
  kSyscall,    // SYS trap; pc already advanced, kernel writes r0 and resumes
  kPageFault,  // pc unchanged; re-execute after page-in
  kHalt,       // HALT retired; r1 = exit status
  kFault,      // synchronous program error (div0, illegal op, wild access);
               // deterministic, so it recurs identically on rollforward (§7.5.2)
};

struct StepResult {
  StepKind kind = StepKind::kOk;
  uint32_t sys_num = 0;       // valid when kSyscall
  PageNum fault_page = 0;     // valid when kPageFault
  const char* fault_reason = nullptr;  // valid when kFault
};

// Executes one instruction.
StepResult Step(CpuContext& ctx, GuestMemory& mem);

// Executes instructions until one does not retire normally or `budget` have
// retired. Sets *retired to the number that retired normally (kOk) and
// returns the stopping instruction's result, or kOk when the budget ran
// out. Instruction fetch resolves the text page only when the pc leaves it.
StepResult RunToTrap(CpuContext& ctx, GuestMemory& mem, uint64_t budget, uint64_t* retired);

// Renders an instruction for traces and the disassembler.
std::string Disassemble(const Instr& instr);

}  // namespace auragen

#endif  // AURAGEN_SRC_AVM_CPU_H_
