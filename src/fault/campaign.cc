#include "src/fault/campaign.h"

#include <atomic>
#include <sstream>
#include <thread>
#include <utility>

#include "src/avm/assembler.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/machine/machine.h"
#include "src/workload/guest_programs.h"
#include "src/workload/kv_service.h"

namespace auragen {

std::vector<ProcPlacement> CampaignWorkload::Placements() const {
  std::vector<ProcPlacement> out;
  for (const Pair& p : pairs) {
    out.push_back(p.producer);
    out.push_back(p.consumer);
  }
  return out;
}

CampaignWorkload MakeCampaignWorkload(uint64_t seed, uint32_t num_clusters) {
  Rng rng(seed);
  CampaignWorkload wl;
  int n = static_cast<int>(rng.Range(2, 4));
  for (int i = 0; i < n; ++i) {
    CampaignWorkload::Pair pair;
    auto place = [&](ProcPlacement& p) {
      p.primary = static_cast<ClusterId>(rng.Below(num_clusters));
      p.backup =
          static_cast<ClusterId>((p.primary + 1 + rng.Below(num_clusters - 1)) % num_clusters);
    };
    place(pair.producer);
    place(pair.consumer);
    pair.items = static_cast<int>(rng.Range(5, 12));
    pair.pace = static_cast<int>(rng.Range(800, 3200));
    pair.tty_line = static_cast<uint32_t>(i);
    wl.pairs.push_back(pair);
  }
  return wl;
}

FaultPlan MakeScenarioPlan(uint64_t seed, const CampaignOptions& options) {
  CampaignWorkload wl = MakeCampaignWorkload(seed, options.num_clusters);
  FaultPlanInputs inputs;
  inputs.num_clusters = options.num_clusters;
  inputs.num_segments = options.num_segments;
  inputs.procs = wl.Placements();
  return MakeFaultPlan(seed, inputs);
}

namespace {

// Routes the campaign's fabric shape into the machine configuration. With
// one segment this is a no-op: config.topology stays empty and the machine
// is the pre-fabric single-bus build, bit for bit.
void ApplyFabric(MachineOptions& mo, const CampaignOptions& opt) {
  if (opt.num_segments <= 1) {
    return;
  }
  AURAGEN_CHECK(opt.num_clusters % opt.num_segments == 0)
      << "campaign fabric: " << opt.num_clusters << " clusters do not divide into "
      << opt.num_segments << " equal segments";
  mo.config.topology =
      Topology::Uniform(opt.num_segments, opt.num_clusters / opt.num_segments, mo.config.bus)
          .WithSwitchLatency(opt.switch_latency_us);
}

}  // namespace

namespace {

// Same worker programs as the randomized crash sweep: a producer streams
// numbered words over a named channel at a seeded pace; the consumer folds
// each into a letter and prints it, so order, content, and count are all
// observable on the terminal.
Executable Producer(int index, int items, int pace) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 6
    sys open
    mov r10, r0
    li r8, 1
loop:
    li r9, 0
pace:
    addi r9, r9, 1
    li r11, )" + std::to_string(pace) + R"(
    blt r9, r11, pace
    li r11, buf
    st r8, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r11, )" + std::to_string(items + 1) + R"(
    blt r8, r11, loop
    exit 0
.data
name: .ascii "ch:f)" + std::to_string(index) + R"("
buf: .word 0
)");
}

Executable Consumer(int index, int items) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 6
    sys open
    mov r10, r0
    li r8, 0
loop:
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    li r11, buf
    ld r2, r11, 0
    li r3, 26
    mod r2, r2, r3
    li r3, 97
    add r2, r2, r3
    li r11, out
    stb r2, r11, 0
    li r1, 2
    li r2, out
    li r3, 1
    sys write
    addi r8, r8, 1
    li r11, )" + std::to_string(items) + R"(
    blt r8, r11, loop
    exit 0
.data
name: .ascii "ch:f)" + std::to_string(index) + R"("
buf: .word 0
out: .byte 0
)");
}

void FoldBytes(uint64_t& h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;  // FNV-1a prime
  }
}

struct RunOutcome {
  bool completed = false;
  bool livelock = false;
  bool converged = false;
  uint64_t duplicates = 0;
  bool tty_dups_ok = false;
  uint64_t workload_digest = 0;
  TraceDigest trace_digest;
  std::map<uint64_t, int32_t> exit_statuses;
  std::string tty_concat;  // per-line outputs joined with '|', for messages
  uint64_t takeovers = 0;
  uint64_t crashes_handled = 0;
};

RunOutcome RunWorkload(const CampaignWorkload& wl, uint64_t seed, BackupMode mode,
                       const FaultPlan* plan, const CampaignOptions& opt) {
  MachineOptions mo;
  mo.config.num_clusters = opt.num_clusters;
  ApplyFabric(mo, opt);
  mo.config.sync_reads_limit = 4;  // tight sync cadence: more recovery points
  mo.config.sync_policy = opt.sync_policy;
  mo.config.page_shards = opt.page_shards;
  mo.seed = seed;
  // Ring-mode flight recorder: whole-run digest for the determinism replay
  // at bounded memory, and a tail of events if a scenario needs diagnosis.
  mo.trace.enabled = true;
  mo.trace.unbounded = false;
  mo.trace.ring_capacity = 4096;
  Machine machine(mo);
  machine.set_dispatch_limit(opt.dispatch_limit);
  machine.Boot();

  std::vector<Gpid> victims;
  for (size_t i = 0; i < wl.pairs.size(); ++i) {
    const CampaignWorkload::Pair& pair = wl.pairs[i];
    Machine::UserSpawnOptions popts;
    popts.mode = mode;
    popts.backup_cluster = pair.producer.backup;
    Machine::UserSpawnOptions copts;
    copts.mode = mode;
    copts.backup_cluster = pair.consumer.backup;
    copts.with_tty = true;
    copts.tty_line = pair.tty_line;
    victims.push_back(machine.SpawnUserProgram(
        pair.producer.primary, Producer(static_cast<int>(i), pair.items, pair.pace), popts));
    victims.push_back(machine.SpawnUserProgram(pair.consumer.primary,
                                               Consumer(static_cast<int>(i), pair.items),
                                               copts));
  }

  InjectionLog log;
  std::vector<ProcPlacement> placements;
  if (plan != nullptr) {
    placements = wl.Placements();
    InjectFaultPlan(machine, *plan, victims, placements, &log);
  }

  RunOutcome out;
  out.completed = machine.RunUntilAllExited(opt.run_cap_us);
  machine.Settle();
  out.livelock = machine.dispatch_limit_hit();
  out.duplicates = machine.TtyDuplicates();
  out.tty_dups_ok = log.tty_primary_crashed;
  out.exit_statuses = machine.exit_statuses();
  out.takeovers = machine.metrics().takeovers;
  out.crashes_handled = machine.metrics().crashes_handled;
  out.trace_digest = machine.tracer()->digest();

  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (size_t i = 0; i < wl.pairs.size(); ++i) {
    std::string line = machine.TtyOutput(static_cast<uint32_t>(i));
    FoldBytes(h, line.data(), line.size());
    FoldBytes(h, "|", 1);
    out.tty_concat += line;
    out.tty_concat += '|';
  }
  for (const auto& [pid, status] : out.exit_statuses) {
    FoldBytes(h, &pid, sizeof(pid));
    FoldBytes(h, &status, sizeof(status));
  }
  out.workload_digest = h;

  out.converged = true;
  for (ClusterId c = 0; c < opt.num_clusters; ++c) {
    if (machine.ClusterAlive(c) && !machine.kernel(c).Quiescent()) {
      out.converged = false;
    }
  }
  return out;
}

}  // namespace

ScenarioResult RunScenario(uint64_t seed, const CampaignOptions& opt) {
  CampaignWorkload wl = MakeCampaignWorkload(seed, opt.num_clusters);
  FaultPlan plan = MakeScenarioPlan(seed, opt);
  BackupMode mode = plan.fullback ? BackupMode::kFullback : BackupMode::kQuarterback;

  ScenarioResult result;
  result.seed = seed;
  result.scenario = plan.Describe();

  auto fail = [&](const std::string& why) {
    result.ok = false;
    if (!result.failure.empty()) {
      result.failure += "; ";
    }
    result.failure += why;
  };

  RunOutcome ref = RunWorkload(wl, seed, mode, nullptr, opt);
  if (!ref.completed) {
    fail(ref.livelock ? "reference run hit the dispatch limit" : "reference run stalled");
    return result;
  }
  if (ref.duplicates != 0) {
    fail("reference run produced duplicate tty records");
    return result;
  }

  RunOutcome got = RunWorkload(wl, seed, mode, &plan, opt);
  result.takeovers = got.takeovers;
  result.crashes_handled = got.crashes_handled;
  result.tty_duplicates = got.duplicates;
  result.trace_digest = got.trace_digest;
  if (got.livelock) {
    fail("livelock: dispatch limit hit");
  } else if (!got.completed) {
    fail("stalled: a workload process never exited");
  } else {
    if (got.exit_statuses != ref.exit_statuses) {
      fail("exit statuses diverge from the fault-free reference");
    }
    if (got.workload_digest != ref.workload_digest) {
      std::ostringstream os;
      os << "terminal output diverges from the fault-free reference (want \""
         << ref.tty_concat << "\" got \"" << got.tty_concat << "\")";
      fail(os.str());
    }
    if (got.duplicates != 0 && !got.tty_dups_ok) {
      fail("duplicate tty records without a tty-server crash");
    }
    if (!got.converged) {
      fail("a surviving cluster did not converge (kernel not quiescent after settle)");
    }
  }
  if (result.ok && opt.check_determinism) {
    RunOutcome replay = RunWorkload(wl, seed, mode, &plan, opt);
    if (replay.trace_digest != got.trace_digest) {
      fail("faulted run is nondeterministic: replay trace digest differs");
    }
  }
  return result;
}

namespace {

struct KvRunOutcome {
  bool completed = false;
  bool livelock = false;
  bool converged = false;
  uint64_t mismatches = 0;
  uint64_t takeovers = 0;
  uint64_t crashes_handled = 0;
  TraceDigest trace_digest;
};

KvRunOutcome RunKvWorkload(const workload::KvOptions& kv, uint64_t seed,
                           ClusterId victim, SimTime crash_rel_us,
                           const CampaignOptions& opt) {
  MachineOptions mo;
  mo.config.num_clusters = opt.num_clusters;
  ApplyFabric(mo, opt);
  mo.config.sync_reads_limit = 8;  // tight cadence: more recovery points
  mo.config.sync_policy = opt.sync_policy;
  mo.config.page_shards = opt.page_shards;
  mo.seed = seed;
  mo.trace.enabled = true;
  mo.trace.unbounded = false;
  mo.trace.ring_capacity = 4096;
  Machine machine(mo);
  machine.set_dispatch_limit(opt.dispatch_limit);
  machine.Boot();

  workload::KvDeployment d = workload::DeployKv(machine, kv);
  if (crash_rel_us != 0) {
    machine.CrashClusterAt(machine.Now() + crash_rel_us, victim);
  }

  KvRunOutcome out;
  out.completed = machine.RunUntil(
      [&] { return workload::KvClientsDone(machine, d); }, opt.run_cap_us);
  machine.Settle();
  out.livelock = machine.dispatch_limit_hit();
  out.mismatches = workload::KvMismatchTotal(machine, d);
  out.takeovers = machine.metrics().takeovers;
  out.crashes_handled = machine.metrics().crashes_handled;
  out.trace_digest = machine.tracer()->digest();
  out.converged = true;
  for (ClusterId c = 0; c < opt.num_clusters; ++c) {
    if (machine.ClusterAlive(c) && !machine.kernel(c).Quiescent()) {
      out.converged = false;
    }
  }
  return out;
}

}  // namespace

ScenarioResult RunKvScenario(uint64_t seed, const CampaignOptions& opt) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  workload::KvOptions kv;
  kv.sessions = static_cast<uint32_t>(rng.Range(8, 25));
  kv.partitions = static_cast<uint32_t>(rng.Range(2, 5));
  kv.requests_per_session = static_cast<uint32_t>(rng.Range(4, 11));
  kv.think_spin = static_cast<uint32_t>(rng.Range(8, 65));
  kv.seed = seed;
  const ClusterId victim = static_cast<ClusterId>(rng.Below(opt.num_clusters));
  // Boot + deploy land around t=20ms; the request window opens ~1-2ms after
  // that and spans several ms at these sizes, so this offset hits anywhere
  // from "channels still opening" to "mid-stream" — both interesting.
  const SimTime crash_rel_us = rng.Range(500, 9000);

  ScenarioResult result;
  result.seed = seed;
  {
    std::ostringstream os;
    os << "kv-cluster-crash sessions=" << kv.sessions << " partitions="
       << kv.partitions << " requests=" << kv.requests_per_session
       << " think=" << kv.think_spin << " victim=c" << victim
       << " at=+" << crash_rel_us << "us";
    result.scenario = os.str();
  }
  auto fail = [&](const std::string& why) {
    result.ok = false;
    if (!result.failure.empty()) {
      result.failure += "; ";
    }
    result.failure += why;
  };

  KvRunOutcome ref = RunKvWorkload(kv, seed, 0, 0, opt);
  if (!ref.completed) {
    fail(ref.livelock ? "reference run hit the dispatch limit" : "reference run stalled");
    return result;
  }
  if (ref.mismatches != 0) {
    fail("reference run had verification mismatches");
    return result;
  }

  KvRunOutcome got = RunKvWorkload(kv, seed, victim, crash_rel_us, opt);
  result.takeovers = got.takeovers;
  result.crashes_handled = got.crashes_handled;
  result.trace_digest = got.trace_digest;
  if (got.livelock) {
    fail("livelock: dispatch limit hit");
  } else if (!got.completed) {
    fail("stalled: a session never finished");
  } else {
    if (got.mismatches != 0) {
      std::ostringstream os;
      os << "acked-write loss: " << got.mismatches << " verification mismatches";
      fail(os.str());
    }
    if (!got.converged) {
      fail("a surviving cluster did not converge (kernel not quiescent after settle)");
    }
  }
  if (result.ok && opt.check_determinism) {
    KvRunOutcome replay = RunKvWorkload(kv, seed, victim, crash_rel_us, opt);
    if (replay.trace_digest != got.trace_digest) {
      fail("faulted run is nondeterministic: replay trace digest differs");
    }
  }
  return result;
}

namespace {

struct FileWorkload {
  struct Churner {
    std::string name;
    int records = 0;
    int pace = 0;
    ProcPlacement placement;
  };
  std::vector<Churner> churners;

  std::vector<ProcPlacement> Placements() const {
    std::vector<ProcPlacement> out;
    for (const Churner& c : churners) {
      out.push_back(c.placement);
    }
    return out;
  }
};

struct FileRunOutcome {
  bool completed = false;
  bool livelock = false;
  bool converged = false;
  std::map<uint64_t, int32_t> exit_statuses;
  uint64_t takeovers = 0;
  uint64_t crashes_handled = 0;
  TraceDigest trace_digest;
};

FileRunOutcome RunFileWorkload(const FileWorkload& wl, uint64_t seed, BackupMode mode,
                               const FaultPlan* plan, const CampaignOptions& opt) {
  MachineOptions mo;
  mo.config.num_clusters = opt.num_clusters;
  ApplyFabric(mo, opt);
  mo.config.sync_reads_limit = 4;
  mo.config.sync_policy = opt.sync_policy;
  mo.config.page_shards = opt.page_shards;
  // Tight group-commit cadence: the crash window is dense with log appends,
  // commit records, checkpoints, and syncs.
  mo.file_server.sync_every_ops = 4;
  mo.seed = seed;
  mo.trace.enabled = true;
  mo.trace.unbounded = false;
  mo.trace.ring_capacity = 4096;
  Machine machine(mo);
  machine.set_dispatch_limit(opt.dispatch_limit);
  machine.Boot();

  std::vector<Gpid> victims;
  for (const FileWorkload::Churner& c : wl.churners) {
    Machine::UserSpawnOptions popts;
    popts.mode = mode;
    popts.backup_cluster = c.placement.backup;
    victims.push_back(machine.SpawnUserProgram(
        c.placement.primary, workload::FileChurner(c.name, c.records, c.pace), popts));
  }

  InjectionLog log;
  std::vector<ProcPlacement> placements;
  if (plan != nullptr) {
    placements = wl.Placements();
    InjectFaultPlan(machine, *plan, victims, placements, &log);
  }

  FileRunOutcome out;
  out.completed = machine.RunUntilAllExited(opt.run_cap_us);
  machine.Settle();
  out.livelock = machine.dispatch_limit_hit();
  out.exit_statuses = machine.exit_statuses();
  out.takeovers = machine.metrics().takeovers;
  out.crashes_handled = machine.metrics().crashes_handled;
  out.trace_digest = machine.tracer()->digest();
  out.converged = true;
  for (ClusterId c = 0; c < opt.num_clusters; ++c) {
    if (machine.ClusterAlive(c) && !machine.kernel(c).Quiescent()) {
      out.converged = false;
    }
  }
  return out;
}

}  // namespace

ScenarioResult RunFileScenario(uint64_t seed, const CampaignOptions& opt) {
  // Decorrelated from the generic and KV families.
  Rng rng(seed ^ 0xc6a4a7935bd1e995ull);
  FileWorkload wl;
  int n = static_cast<int>(rng.Range(2, 4));
  for (int i = 0; i < n; ++i) {
    FileWorkload::Churner c;
    c.name = "jrnl" + std::to_string(i) + ".dat";
    c.records = static_cast<int>(rng.Range(6, 16));
    c.pace = static_cast<int>(rng.Range(500, 3000));
    c.placement.primary = static_cast<ClusterId>(rng.Below(opt.num_clusters));
    c.placement.backup = static_cast<ClusterId>(
        (c.placement.primary + 1 + rng.Below(opt.num_clusters - 1)) % opt.num_clusters);
    wl.churners.push_back(std::move(c));
  }

  // Alternate the two journal scenarios so both get half of every campaign;
  // the shapes draw from the same stream as MakeFaultPlan would.
  FaultPlanInputs inputs;
  inputs.num_clusters = opt.num_clusters;
  inputs.num_segments = opt.num_segments;
  inputs.procs = wl.Placements();
  FaultPlan plan;
  if (seed % 2 == 0) {
    plan.scenario = ScenarioKind::kCrashMidCommit;
    plan.fullback = rng.Chance(0.5);
    plan.actions = {FaultAction{FaultKind::kCrashCluster, rng.Range(20'000, 200'000),
                                inputs.server_home_a, 0}};
  } else {
    plan.scenario = ScenarioKind::kCrashDuringReplay;
    plan.fullback = true;
    SimTime t = rng.Range(15'000, 80'000);
    SimTime back = t + rng.Range(25'000, 60'000);
    plan.actions = {
        FaultAction{FaultKind::kCrashCluster, t, inputs.server_home_a, 0},
        FaultAction{FaultKind::kRestoreCluster, back, inputs.server_home_a, 0},
        FaultAction{FaultKind::kCrashCluster, back + rng.Range(15'000, 40'000),
                    inputs.server_home_b, 0}};
  }
  BackupMode mode = plan.fullback ? BackupMode::kFullback : BackupMode::kQuarterback;

  ScenarioResult result;
  result.seed = seed;
  {
    std::ostringstream os;
    os << plan.Describe() << " churners=" << n;
    result.scenario = os.str();
  }
  auto fail = [&](const std::string& why) {
    result.ok = false;
    if (!result.failure.empty()) {
      result.failure += "; ";
    }
    result.failure += why;
  };

  FileRunOutcome ref = RunFileWorkload(wl, seed, mode, nullptr, opt);
  if (!ref.completed) {
    fail(ref.livelock ? "reference run hit the dispatch limit" : "reference run stalled");
    return result;
  }
  for (const auto& [pid, status] : ref.exit_statuses) {
    if (status != 0) {
      fail("reference run had read-back mismatches");
      return result;
    }
  }

  FileRunOutcome got = RunFileWorkload(wl, seed, mode, &plan, opt);
  result.takeovers = got.takeovers;
  result.crashes_handled = got.crashes_handled;
  result.trace_digest = got.trace_digest;
  if (got.livelock) {
    fail("livelock: dispatch limit hit");
  } else if (!got.completed) {
    fail("stalled: a churner never exited (torn metadata or lost reply)");
  } else {
    uint64_t mismatches = 0;
    for (const auto& [pid, status] : got.exit_statuses) {
      mismatches += static_cast<uint64_t>(status < 0 ? -status : status);
    }
    if (mismatches != 0) {
      std::ostringstream os;
      os << "acked-write loss: " << mismatches << " read-back mismatches";
      fail(os.str());
    }
    if (got.exit_statuses != ref.exit_statuses) {
      fail("exit statuses diverge from the fault-free reference");
    }
    if (!got.converged) {
      fail("a surviving cluster did not converge (kernel not quiescent after settle)");
    }
  }
  if (result.ok && opt.check_determinism) {
    FileRunOutcome replay = RunFileWorkload(wl, seed, mode, &plan, opt);
    if (replay.trace_digest != got.trace_digest) {
      fail("faulted run is nondeterministic: replay trace digest differs");
    }
  }
  return result;
}

CampaignSummary RunCampaign(uint64_t first_seed, uint64_t count, const CampaignOptions& opt,
                            const std::function<void(const ScenarioResult&)>& on_result) {
  std::vector<ScenarioResult> results(count);
  auto run_one = [&](uint64_t index) {
    uint64_t seed = first_seed + index;
    results[index] = opt.file_workload ? RunFileScenario(seed, opt)
                     : opt.kv_workload ? RunKvScenario(seed, opt)
                                       : RunScenario(seed, opt);
  };

  uint32_t workers = std::max<uint32_t>(1, opt.seed_threads);
  workers = static_cast<uint32_t>(std::min<uint64_t>(workers, count));
  if (workers <= 1) {
    for (uint64_t i = 0; i < count; ++i) {
      run_one(i);
    }
  } else {
    // Seeds are independent deterministic simulations; a shared ticket
    // spreads them over the pool. Each result lands in its own slot, so the
    // aggregation below sees the exact sequential outcome, in seed order.
    std::atomic<uint64_t> next{0};
    auto pull = [&] {
      uint64_t i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count) {
        run_one(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (uint32_t t = 0; t + 1 < workers; ++t) {
      pool.emplace_back(pull);
    }
    pull();
    for (std::thread& t : pool) {
      t.join();
    }
  }

  CampaignSummary summary;
  for (const ScenarioResult& r : results) {
    summary.run++;
    // First token of Describe() is the scenario kind.
    summary.by_scenario[r.scenario.substr(0, r.scenario.find(' '))]++;
    if (!r.ok) {
      summary.failed++;
      summary.failures.push_back(r);
    }
    if (on_result) {
      on_result(r);
    }
  }
  return summary;
}

}  // namespace auragen
