// Serving-workload subsystem tests (src/workload): the partitioned KV guest
// service, its closed-loop clients, and the SLO pipeline built on
// kRequestMark trace events.

#include <gtest/gtest.h>

#include <string>

#include "src/avm/assembler.h"
#include "src/kernel/native_body.h"
#include "src/machine/machine.h"
#include "src/paging/page_server.h"
#include "src/trace/analysis.h"
#include "src/workload/kv_service.h"
#include "src/workload/slo.h"

namespace auragen::workload {
namespace {

KvOptions SmallOptions() {
  KvOptions kv;
  kv.sessions = 12;
  kv.partitions = 4;
  kv.requests_per_session = 8;
  kv.think_spin = 16;
  kv.seed = 7;
  return kv;
}

MachineOptions SmallMachine() {
  MachineOptions options;
  options.config.num_clusters = 4;
  options.seed = 7;
  options.trace.enabled = true;
  options.trace.unbounded = true;
  return options;
}

SloReport RunKv(const MachineOptions& mo, const KvOptions& kv,
                SimTime crash_at = 0, uint32_t crash_cluster = 0) {
  Machine machine(mo);
  machine.Boot();
  KvDeployment d = DeployKv(machine, kv);
  if (crash_at != 0) {
    machine.CrashClusterAt(machine.Now() + crash_at, crash_cluster);
  }
  const bool done = machine.RunUntil(
      [&] { return KvClientsDone(machine, d); }, 500'000'000);
  machine.Settle();
  return BuildSloReport(machine.tracer()->Events(), machine, d, done);
}

// Every session writes its private key first and reads it back last; the
// plan tracks intermediate private ops too. A clean run must therefore
// complete with zero verification mismatches — read-your-own-writes.
TEST(KvWorkload, ReadYourOwnWrites) {
  SloReport r = RunKv(SmallMachine(), SmallOptions());
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.completed, 12u * 8u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_GT(r.p50_us, 0u);
  EXPECT_GE(r.p999_us, r.p99_us);
  EXPECT_GE(r.p99_us, r.p50_us);
  EXPECT_GT(r.goodput_rps, 0.0);
}

// The plan is a pure function of (session, options): same seed, same plan;
// different seed, different shared-key traffic.
TEST(KvWorkload, PlanIsDeterministic) {
  KvOptions kv = SmallOptions();
  std::vector<KvRequest> a = PlanSession(5, kv);
  std::vector<KvRequest> b = PlanSession(5, kv);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  EXPECT_EQ(a.front().op, 2u);    // leading private write
  EXPECT_TRUE(a.front().verify);
  EXPECT_EQ(a.back().op, 1u);     // closing private read-back
  EXPECT_TRUE(a.back().verify);
}

// Message-system FT: crash a cluster mid-run. Takeover revives the lost
// primaries and co-crashed clients transparently; no acked write is lost and
// the client-side retry path never fires.
TEST(KvWorkload, TransparentFailoverAfterClusterCrash) {
  // CrashClusterAt offsets from engine().Now(), which is already ~20ms after
  // boot + deploy; +4ms lands mid-stream of the ~[2ms,7ms] request window.
  SloReport r = RunKv(SmallMachine(), SmallOptions(), 4'000, 2);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.completed, 12u * 8u);
}

// Application-level primary/backup (replicas = 2, message-system FT off):
// crashing the primaries' cluster kills them for good, so every session must
// take the client-side retry/switchover path to the replica — and still
// verify all its private reads.
TEST(KvWorkload, ClientSwitchoverToReplica) {
  KvOptions kv = SmallOptions();
  kv.replicas = 2;
  kv.spread_servers = false;
  kv.primary_base = 2;
  kv.backup_base = 1;
  kv.client_clusters = {0, 1};
  MachineOptions mo = SmallMachine();
  mo.config.strategy = FtStrategy::kNone;
  SloReport r = RunKv(mo, kv, 4'000, 2);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_GT(r.retries, 0u);  // at least one session switched over
}

// Two identical runs must produce bit-identical traces — the SLO numbers
// are reproducible artifacts, not samples.
TEST(KvWorkload, DeterministicTraceDigest) {
  auto digest_of = [&]() {
    MachineOptions mo = SmallMachine();
    Machine machine(mo);
    machine.Boot();
    KvDeployment d = DeployKv(machine, SmallOptions());
    machine.CrashClusterAt(machine.Now() + 4'000, 1);
    machine.RunUntil([&] { return KvClientsDone(machine, d); }, 500'000'000);
    machine.Settle();
    return machine.tracer()->digest().ToString();
  };
  EXPECT_EQ(digest_of(), digest_of());
}

// The latency pipeline end to end: request marks pair up into the analysis
// histograms, and the histogram percentiles are ordered and bounded.
TEST(KvWorkload, MarksFeedLatencyHistograms) {
  MachineOptions mo = SmallMachine();
  Machine machine(mo);
  machine.Boot();
  KvOptions kv = SmallOptions();
  KvDeployment d = DeployKv(machine, kv);
  machine.RunUntil([&] { return KvClientsDone(machine, d); }, 500'000'000);
  machine.Settle();
  TraceAnalysis a = AnalyzeTrace(machine.tracer()->Events());
  EXPECT_EQ(a.requests_completed, 12u * 8u);
  EXPECT_EQ(a.request_latency.count(), 12u * 8u);
  EXPECT_EQ(a.request_read_latency.count() + a.request_write_latency.count(),
            a.requests_completed);
  EXPECT_LE(a.request_latency.p50(), a.request_latency.p99());
  EXPECT_LE(a.request_latency.p99(), a.request_latency.p999());
  EXPECT_LE(a.request_latency.p999(), a.request_latency.max_us());
  EXPECT_GE(a.request_latency.p50(), a.request_latency.min_us());
  EXPECT_GT(a.RequestGoodputPerSec(), 0.0);
}

// Oracle for KvClientProgram: the same client assembled entirely from text,
// its plan table spelled out as three `.word` lines per request.
Executable ClientProgramViaWordText(uint32_t session, const KvOptions& kv) {
  std::string src = KvClientSource(session, kv);
  const std::string reserved =
      "table: .space " + std::to_string(12 * kv.requests_per_session) + "\n";
  const size_t at = src.find(reserved);
  EXPECT_NE(at, std::string::npos);
  std::string words = "table:\n";
  for (const KvRequest& r : PlanSession(session, kv)) {
    words += ".word " + std::to_string(r.op | (r.verify ? 256u : 0u)) + "\n.word " +
             std::to_string(r.key) + "\n.word " + std::to_string(r.value) + "\n";
  }
  src.replace(at, reserved.size(), words);
  return MustAssemble(src);
}

// Writing the plan as bytes at `table` yields exactly the image the `.word`
// text used to: program images are paged in by content, so every byte counts.
TEST(KvWorkload, ClientImageMatchesWordTextEmitter) {
  for (uint32_t replicas : {1u, 2u}) {
    for (uint32_t requests : {2u, 16u, 1000u}) {
      for (uint64_t seed : {1u, 7u, 7919u}) {
        KvOptions kv = SmallOptions();
        kv.replicas = replicas;
        kv.requests_per_session = requests;
        kv.seed = seed;
        for (uint32_t session : {0u, 5u, 11u}) {
          SCOPED_TRACE("replicas=" + std::to_string(replicas) + " requests=" +
                       std::to_string(requests) + " seed=" + std::to_string(seed) +
                       " session=" + std::to_string(session));
          const Executable fast = KvClientProgram(session, kv);
          const Executable text = ClientProgramViaWordText(session, kv);
          EXPECT_EQ(fast.entry, text.entry);
          ASSERT_EQ(fast.image, text.image);
        }
      }
    }
  }
}

// The resuming KvClientsDone agrees with a scan of every client at every
// call of a run that crashes a cluster mid-stream.
TEST(KvWorkload, ClientsDoneMatchesFullScan) {
  Machine machine(SmallMachine());
  machine.Boot();
  KvDeployment d = DeployKv(machine, SmallOptions());
  machine.CrashClusterAt(machine.Now() + 4'000, 2);
  uint64_t calls = 0;
  uint64_t disagreements = 0;
  const bool done = machine.RunUntil(
      [&] {
        bool all = true;
        for (Gpid pid : d.clients) all = all && machine.HasExited(pid);
        const bool fast = KvClientsDone(machine, d);
        disagreements += fast != all ? 1 : 0;
        ++calls;
        return fast;
      },
      500'000'000);
  EXPECT_TRUE(done);
  EXPECT_GT(calls, 100u);
  EXPECT_EQ(disagreements, 0u);
  EXPECT_TRUE(KvClientsDone(machine, d));
}

// kvload's recovery shape: 64 write-heavy sessions on 8 clusters, cluster 2
// crashed 100 ms in. The recovered processes page their state back in
// (§7.10.2) while syncs keep the page server busy; a page request must not
// queue behind its write backlog (about 1 s of it when the server wrote one
// page per disk request).
TEST(KvWorkload, RecoveryPageInsDoNotQueueBehindPageWrites) {
  KvOptions kv;
  kv.sessions = 64;
  kv.requests_per_session = 300;
  kv.read_fraction = 0.3;
  MachineOptions mo;
  mo.config.num_clusters = 8;
  mo.seed = kv.seed;
  mo.trace.enabled = true;
  mo.trace.unbounded = true;
  mo.trace.kind_mask = TraceKindBit(TraceEventKind::kRequestMark) |
                       TraceKindBit(TraceEventKind::kPageFault) |
                       TraceKindBit(TraceEventKind::kPageReply);
  Machine machine(mo);
  machine.Boot();
  KvDeployment d = DeployKv(machine, kv);
  machine.CrashClusterAt(machine.Now() + 100'000, 2);
  const bool done = machine.RunUntil([&] { return KvClientsDone(machine, d); }, 500'000'000);
  machine.Settle();
  SloReport r = BuildSloReport(machine.tracer()->Events(), machine, d, done);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_LT(r.max_us, 400'000u);
  TraceAnalysis a = AnalyzeTrace(machine.tracer()->Events());
  EXPECT_GT(a.page_in_latency.count(), 0u);
  EXPECT_LT(a.page_in_latency.max_us(), 100'000u);
}

// Crash the page server's own cluster while it holds staged page images:
// its backup takes over with the durable prefix only and replays the rest
// from its saved queues. No acknowledged write may be lost.
TEST(KvWorkload, PageServerCrashWithStagedPagesLosesNoAckedWrite) {
  KvOptions kv;
  kv.sessions = 32;
  kv.requests_per_session = 200;
  kv.read_fraction = 0.3;
  MachineOptions mo;
  mo.config.num_clusters = 8;
  mo.seed = kv.seed;
  mo.trace.enabled = true;
  mo.trace.unbounded = true;
  mo.trace.kind_mask = TraceKindBit(TraceEventKind::kRequestMark);
  Machine machine(mo);
  machine.Boot();
  KvDeployment d = DeployKv(machine, kv);
  const ServerAddr ps = machine.page_server_addr();
  auto staged_pages = [&]() -> size_t {
    Pcb* pcb = machine.kernel(ps.primary).FindProcess(ps.pid);
    auto* body = pcb != nullptr ? dynamic_cast<NativeBody*>(pcb->body.get()) : nullptr;
    auto* program = body != nullptr ? dynamic_cast<PageServerProgram*>(&body->program())
                                    : nullptr;
    return program != nullptr ? program->staged_pages() : 0;
  };
  // Into the steady load, then on to a moment with images staged.
  machine.Run(50'000);
  ASSERT_TRUE(machine.RunUntil([&] { return staged_pages() > 0; }, 100'000));
  const uint64_t takeovers = machine.metrics().takeovers;
  machine.CrashCluster(ps.primary);
  const bool done = machine.RunUntil([&] { return KvClientsDone(machine, d); }, 500'000'000);
  machine.Settle();
  EXPECT_GT(machine.metrics().takeovers, takeovers);
  SloReport r = BuildSloReport(machine.tracer()->Events(), machine, d, done);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.mismatches, 0u);
}

}  // namespace
}  // namespace auragen::workload
