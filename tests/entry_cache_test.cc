// Kernel-level tests for the routing-entry caches (RoutingTable's removal
// epoch, FdBinding::entry, Pcb::signal_entry): every path that removes or
// replaces routing entries while a process holds cached entries — a sync
// dropping a closed channel, a process exit on the same cluster, takeover,
// a cluster restart — must leave reads and `which` resolving to the live
// entries, and a signal arriving after its entry was cached must still be
// delivered.

#include <gtest/gtest.h>

#include "src/avm/assembler.h"
#include "src/machine/machine.h"

namespace auragen {
namespace {

MachineOptions TwoClusters() {
  MachineOptions options;
  options.config.num_clusters = 2;
  return options;
}

// Writes "xyz" on ch:b one byte at a time, with pauses between.
Executable SlowSenderB() {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r5, r0
    li r6, 0
round:
    li r8, 0
pause:
    addi r8, r8, 1
    li r9, 3000
    blt r8, r9, pause
    li r11, msg
    add r2, r11, r6
    mov r1, r5
    li r3, 1
    sys write
    addi r6, r6, 1
    li r9, 3
    blt r6, r9, round
    exit 0
.data
name: .ascii "ch:b"
msg: .ascii "xyz"
)");
}

TEST(EntryCache, SyncDroppingAClosedChannelLeavesOtherReadsIntact) {
  Machine machine(TwoClusters());
  machine.Boot();
  // A writes one byte on ch:a and exits on the receiver's own cluster (its
  // exit removes its routing entries there). The receiver reads from both
  // channels (filling both fds' caches), closes ch:a and forces a sync,
  // which removes ch:a's entry. Reads and `which` on ch:b must still find
  // their entry, and the closed fd must now fail.
  Executable sender_a = MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r1, r0
    li r2, msg
    li r3, 1
    sys write
    exit 0
.data
name: .ascii "ch:a"
msg: .ascii "1"
)");
  Executable receiver = MustAssemble(R"(
start:
    li r1, name_a
    li r2, 4
    sys open
    mov r5, r0
    li r1, name_b
    li r2, 4
    sys open
    mov r6, r0
    mov r1, r5
    li r2, buf
    li r3, 1
    sys read
    li r1, 2
    li r2, buf
    li r3, 1
    sys write
    mov r1, r6
    li r2, buf
    li r3, 1
    sys read
    li r1, 2
    li r2, buf
    li r3, 1
    sys write
    mov r1, r5
    sys close
    sys synchint
    li r11, fds
    st r6, r11, 0
    li r1, fds
    li r2, 1
    sys bunch
    mov r7, r0
    li r8, 0
again:
    mov r1, r7
    sys which
    mov r1, r0
    li r2, buf
    li r3, 1
    sys read
    li r1, 2
    li r2, buf
    li r3, 1
    sys write
    addi r8, r8, 1
    li r9, 2
    blt r8, r9, again
    mov r1, r5
    li r2, buf
    li r3, 1
    sys read
    li r12, 0
    bge r0, r12, bad
    exit 0
bad:
    exit 1
.data
name_a: .ascii "ch:a"
name_b: .ascii "ch:b"
fds: .space 4
buf: .space 4
)");
  Machine::UserSpawnOptions ropts;
  ropts.with_tty = true;
  Gpid rpid = machine.SpawnUserProgram(0, receiver, ropts);
  machine.SpawnUserProgram(0, sender_a);
  machine.SpawnUserProgram(1, SlowSenderB());
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(rpid), 0);
  EXPECT_EQ(machine.TtyOutput(0), "1xyz");
  EXPECT_GE(machine.metrics().syncs, 1u);
}

// Reads six bytes from ch:t through a one-fd bunch, echoing each.
Executable WhichReader() {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r6, r0
    li r11, fds
    st r6, r11, 0
    li r1, fds
    li r2, 1
    sys bunch
    mov r7, r0
    li r8, 0
again:
    mov r1, r7
    sys which
    mov r1, r0
    li r2, buf
    li r3, 1
    sys read
    li r1, 2
    li r2, buf
    li r3, 1
    sys write
    addi r8, r8, 1
    li r9, 6
    blt r8, r9, again
    exit 0
.data
name: .ascii "ch:t"
fds: .space 4
buf: .space 4
)");
}

// Writes "abcdef" on ch:t one byte at a time, with pauses between.
Executable SlowSenderT() {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r5, r0
    li r6, 0
round:
    li r8, 0
pause:
    addi r8, r8, 1
    li r9, 4000
    blt r8, r9, pause
    li r11, msg
    add r2, r11, r6
    mov r1, r5
    li r3, 1
    sys write
    addi r6, r6, 1
    li r9, 6
    blt r6, r9, round
    exit 0
.data
name: .ascii "ch:t"
msg: .ascii "abcdef"
)");
}

TEST(EntryCache, ReadsResolveAfterTakeover) {
  Machine machine(TwoClusters());
  machine.Boot();
  // The reader's cluster dies mid-stream. Its backup takes over in the
  // other cluster (the one serving the terminal), where the passive entries
  // are flipped into new primary entries (RemoveAllOf + Create) for a fresh
  // process; it must read the rest of the stream exactly once.
  Machine::UserSpawnOptions ropts;
  ropts.with_tty = true;
  ropts.backup_cluster = 0;
  Gpid rpid = machine.SpawnUserProgram(1, WhichReader(), ropts);
  Machine::UserSpawnOptions sopts;
  sopts.backup_cluster = 1;
  machine.SpawnUserProgram(0, SlowSenderT(), sopts);
  ASSERT_TRUE(machine.RunUntil([&] { return machine.TtyOutput(0).size() >= 2; }, 60'000'000));
  ASSERT_LT(machine.TtyOutput(0).size(), 6u);
  machine.CrashCluster(1);
  ASSERT_TRUE(machine.RunUntilAllExited(90'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(rpid), 0);
  EXPECT_EQ(machine.TtyOutput(0), "abcdef");
  EXPECT_EQ(machine.TtyDuplicates(), 0u);
}

TEST(EntryCache, ReadsResolveOnARestoredCluster) {
  Machine machine(TwoClusters());
  machine.Boot();
  // A restarted kernel gets a fresh routing table by move-assignment; its
  // epoch moves past the old one, and processes spawned there afterwards
  // read through their own caches.
  machine.CrashCluster(1);
  machine.Run(2'000'000);
  machine.RestoreCluster(1);
  machine.Run(2'000'000);
  Machine::UserSpawnOptions ropts;
  ropts.with_tty = true;
  Gpid rpid = machine.SpawnUserProgram(1, WhichReader(), ropts);
  machine.SpawnUserProgram(1, SlowSenderT());
  ASSERT_TRUE(machine.RunUntilAllExited(90'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(rpid), 0);
  EXPECT_EQ(machine.TtyOutput(0), "abcdef");
}

TEST(EntryCache, SignalArrivingAfterItsEntryWasCachedIsDelivered) {
  Machine machine(TwoClusters());
  machine.Boot();
  // Every dispatch resolves the signal entry (filling Pcb::signal_entry).
  // The alarm fires while the process is blocked in a read, long after the
  // first dispatch: the handler must run, and the restarted read must then
  // complete with the sender's byte.
  Executable prog = MustAssemble(R"(
start:
    li r1, handler
    sys sigset
    li r1, name
    li r2, 4
    sys open
    mov r5, r0
    li r1, 2000
    sys alarm
    mov r1, r5
    li r2, buf
    li r3, 1
    sys read
    li r11, flag
    ld r2, r11, 0
    li r12, 1
    bne r2, r12, no_signal
    li r11, buf
    ldb r2, r11, 0
    li r12, 81
    bne r2, r12, bad_byte
    exit 5
no_signal:
    exit 2
bad_byte:
    exit 3
handler:
    li r11, flag
    li r2, 1
    st r2, r11, 0
    sys sigret
.data
name: .ascii "ch:s"
flag: .word 0
buf: .space 4
)");
  Executable late_sender = MustAssemble(R"(
start:
    li r1, name
    li r2, 4
    sys open
    mov r5, r0
    li r8, 0
pause:
    addi r8, r8, 1
    li r9, 30000
    blt r8, r9, pause
    mov r1, r5
    li r2, msg
    li r3, 1
    sys write
    exit 0
.data
name: .ascii "ch:s"
msg: .ascii "Q"
)");
  Gpid pid = machine.SpawnUserProgram(0, prog);
  machine.SpawnUserProgram(1, late_sender);
  ASSERT_TRUE(machine.RunUntilAllExited(60'000'000));
  machine.Settle();
  EXPECT_EQ(machine.ExitStatus(pid), 5);
  EXPECT_GE(machine.metrics().forced_signal_syncs, 1u);
}

}  // namespace
}  // namespace auragen
