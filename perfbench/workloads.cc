// perfbench_workloads: runs one benchmark workload through the repository's
// public API, repetition after repetition, and prints one JSON object per
// repetition on stdout. perfbench/run.py builds this program, aggregates the
// repetitions (medians, gates) and prints the benchmark result.
//
//   perfbench_workloads --workload kv-steady --seed 1 --seconds 40 --trace 0
//   perfbench_workloads --workload campaign-mixed --seed 1 --seconds 40 --trace 1
//       --spans out.json
//
// Every machine runs with one engine thread: the sequential reference path
// of the windowed engine, so the benchmark measures the program and not the
// host scheduler.
//
// A kv run covers the six workload seeds 6*N .. 6*N+5 for --seed N, a
// campaign run the scenario-seed range named by N; repetitions cycle through
// them until --seconds is used. Untraced repetitions time only what the
// end-to-end metrics need, in simulated-time slices with a core-speed probe
// between them (RefClock). With --trace 1, each seed also gets traced
// repetitions, which record spans around every call into a layer (Boot,
// DeployKv, each RunUntil slice, the stop predicate, Settle, BuildSloReport,
// each campaign seed), keep them in memory and write them as a Chrome trace
// file at the end. All spans are taken here, outside the program.
//
// Output records (one JSON object per line):
//   {"rep": i, "seed": s, "traced": 0|1, "ok": 0|1, "digest": "...",
//    "sim": {...}, "host": {...}, "layer": {...}, "slices": [...]}
//   {"end": 1, "peak_rss_mb": ...}
// "sim" holds values that are exact for a seed (simulated time, counters);
// run.py requires them, and the digest, to be identical in every repetition
// of a seed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/campaign.h"
#include "src/machine/machine.h"
#include "src/trace/trace.h"
#include "src/workload/kv_service.h"
#include "src/workload/slo.h"

namespace {

using namespace auragen;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kProcessStart)
      .count();
}

// A flat list of named numbers, printed as one JSON object.
class Fields {
 public:
  void Set(const std::string& name, double value) { items_.emplace_back(name, value); }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].second);
      out += (i == 0 ? "\"" : ", \"") + items_[i].first + "\": " + buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

// Host-time spans recorded around calls into the program. Kept in memory;
// WriteChrome dumps them at the end of the run.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    Fields args;
  };

  int Begin(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), parent, NowNs(), 0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Ends span `id` and returns its duration in nanoseconds.
  int64_t End(int id) {
    Span& s = spans_[id];
    s.end_ns = NowNs();
    return s.end_ns - s.start_ns;
  }
  Fields& args(int id) { return spans_[id].args; }

  bool WriteChrome(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Fields meta;
      meta.Set("id", static_cast<double>(i));
      meta.Set("parent", s.parent);
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %s, \"counts\": %s}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, meta.Json().c_str(), s.args.Json().c_str());
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

// Runs f() and returns its host time in nanoseconds; with tracing on, also
// records it as span `name` under `parent`.
template <typename F>
int64_t Timed(Spans* spans, const char* name, int parent, F&& f) {
  const int id = spans != nullptr ? spans->Begin(name, parent) : -1;
  const int64_t t0 = NowNs();
  f();
  const int64_t ns = NowNs() - t0;
  if (spans != nullptr) spans->End(id);
  return ns;
}

// Core-speed probe. The benchmark runs on a shared VM, where host times of
// the same repetition move by up to 1.7x within seconds as other tenants
// load the physical core under the benchmark's vCPU. The probe, a fixed
// register-only loop that calls no program code, slows down with them
// (memory latency, and loops on other vCPUs, stay put), so it is taken
// between the timed pieces and host times are scaled by kProbeRefNs / probe
// time: "reference-core" time, what the piece would have taken on an
// uncontended core. Program changes pass through unscaled, as the probe runs
// none of it.
constexpr int kProbeIterations = 50'000;
// The probe's time on an uncontended core of the machine the benchmark was
// defined on (4-vCPU Xeon, Sapphire Rapids, GCC 12, RelWithDebInfo).
constexpr double kProbeRefNs = 110'000;

volatile uint64_t probe_sink = 0;

int64_t ProbeOnceNs() {
  const int64_t t0 = NowNs();
  uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < kProbeIterations; ++i) {
    a ^= a << 13;
    a ^= a >> 7;
    b ^= b << 13;
    b ^= b >> 7;
    c ^= c << 17;
    c ^= c >> 5;
    d ^= d << 17;
    d ^= d >> 5;
  }
  probe_sink = a + b + c + d;
  return NowNs() - t0;
}

// The faster of two probes, so an interrupt during one does not count as
// contention.
int64_t ProbeNs() { return std::min(ProbeOnceNs(), ProbeOnceNs()); }

// Host time of a run of pieces, raw and on the reference core. Each piece
// is bracketed by probes and scaled by their mean; probe time counts in
// neither.
class RefClock {
 public:
  RefClock() : last_probe_ns_(ProbeNs()) {}

  template <typename F>
  void Time(F&& f) {
    const int64_t t0 = NowNs();
    f();
    const int64_t ns = NowNs() - t0;
    const int64_t probe = ProbeNs();
    raw_ns_ += ns;
    ref_ns_ += ns * 2 * kProbeRefNs / static_cast<double>(last_probe_ns_ + probe);
    probes_.push_back(probe);
    last_probe_ns_ = probe;
  }

  int64_t raw_ns() const { return raw_ns_; }
  double raw_s() const { return raw_ns_ / 1e9; }
  double ref_s() const { return ref_ns_ / 1e9; }
  // Median probe after the pieces, in nanoseconds.
  double median_probe_ns() const {
    std::vector<int64_t> v = probes_;
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : static_cast<double>(v[v.size() / 2]);
  }

 private:
  int64_t last_probe_ns_;
  int64_t raw_ns_ = 0;
  double ref_ns_ = 0;
  std::vector<int64_t> probes_;
};

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// One repetition's output.
struct Rep {
  std::string digest;
  bool ok = true;
  Fields sim;    // exact for the seed
  Fields host;   // host time and memory
  Fields layer;  // traced repetitions only
  std::string slices = "[]";
};

// ---------------------------------------------------------------- kv ----

constexpr uint64_t kKvSeedsPerRun = 6;
constexpr uint32_t kKvClusters = 8;
constexpr ClusterId kKvCrashCluster = 2;
// Simulated-time cap on the run phase. kv-steady's load ends within about
// 0.6 s, kv-wide's within 0.8 s and kv-deep-failover's within 4 s, so a run
// that reaches the cap has stalled; it fails the completion gate after a few
// host seconds instead of simulating idle heartbeats for minutes.
constexpr SimTime kKvRunCapUs = 30'000'000;

struct KvShape {
  workload::KvOptions kv;
  SimTime crash_after_us = 0;  // after DeployKv; 0 = no fault
  SimTime slice_us = 0;        // traced run-phase RunUntil slice
};

// Options every kv workload shares. Every traffic option is set here or in
// the workload, so a change of KvOptions' defaults cannot change the
// benchmark.
KvShape KvBase(uint64_t seed) {
  KvShape s;
  s.kv.partitions = 8;
  s.kv.replicas = 1;
  s.kv.private_fraction = 0.25;
  s.kv.keys_per_partition = 64;
  s.kv.zipf_theta = 0.99;
  s.kv.think_spin = 64;
  s.kv.seed = seed;
  return s;
}

// kv-wide: the kvload default shape. Length scales by requests per session,
// never by session count, so per-event cost keeps its character. Runnable
// but not in BENCHMARK.json: on a few percent of seeds one session's first
// request is lost and the session never finishes (see NOTES.md).
KvShape KvWide(uint64_t seed) {
  KvShape s = KvBase(seed);
  s.kv.sessions = 1000;
  s.kv.requests_per_session = 16;
  s.kv.read_fraction = 0.70;
  s.slice_us = 5'000;
  return s;
}

// kv-steady: the fault-free serving path at 64 sessions, kv-wide's read
// mix. With 64 sessions the channel-pairing race that loses kv-wide's first
// requests is rare: 2 of workload seeds 0-3000 (see NOTES.md).
KvShape KvSteady(uint64_t seed) {
  KvShape s = KvBase(seed);
  s.kv.sessions = 64;
  s.kv.requests_per_session = 500;
  s.kv.read_fraction = 0.70;
  s.slice_us = 10'000;
  return s;
}

// kv-deep-failover: few long write-heavy sessions; cluster 2 dies 400 ms
// into the load (which runs about 1.25 s), in steady state.
KvShape KvDeepFailover(uint64_t seed) {
  KvShape s = KvBase(seed);
  s.kv.sessions = 64;
  s.kv.requests_per_session = 1000;
  s.kv.read_fraction = 0.30;
  s.crash_after_us = 400'000;
  s.slice_us = 50'000;
  return s;
}

Rep RunKvRep(const KvShape& shape, Spans* spans) {
  Rep rep;
  const int root = spans != nullptr ? spans->Begin("kv.rep", -1) : -1;
  if (spans != nullptr) spans->args(root).Set("seed", static_cast<double>(shape.kv.seed));

  MachineOptions options;
  options.config.num_clusters = kKvClusters;
  options.config.strategy = FtStrategy::kMessageSystem;
  options.config.sync_policy.mode = SyncMode::kIncremental;
  options.seed = shape.kv.seed;
  options.engine_threads = 1;
  options.trace.enabled = true;
  options.trace.unbounded = true;
  // The SLO marks plus the crash-recovery envelope, as kvload records them.
  options.trace.kind_mask = TraceKindBit(TraceEventKind::kRequestMark) |
                            TraceKindBit(TraceEventKind::kCrashDetect) |
                            TraceKindBit(TraceEventKind::kCrashHandled) |
                            TraceKindBit(TraceEventKind::kRecoveryDispatch) |
                            TraceKindBit(TraceEventKind::kTakeover);

  std::unique_ptr<Machine> owned;
  workload::KvDeployment d;
  int64_t boot_ns = 0;
  int64_t deploy_ns = 0;
  RefClock setup;
  setup.Time([&] {
    Timed(spans, "machine.construct", root,
          [&] { owned = std::make_unique<Machine>(options); });
    boot_ns = Timed(spans, "machine.boot", root, [&] { owned->Boot(); });
    deploy_ns = Timed(spans, "workload.deploy", root,
                      [&] { d = workload::DeployKv(*owned, shape.kv); });
  });
  Machine& machine = *owned;

  const uint64_t events0 = machine.dispatched();
  const uint64_t messages0 = machine.metrics().messages_sent;
  const SimTime run_start_us = machine.Now();
  SimTime crash_at_us = 0;
  if (shape.crash_after_us != 0) {
    crash_at_us = machine.Now() + shape.crash_after_us;
    machine.CrashClusterAt(crash_at_us, kKvCrashCluster);
  }

  // Run phase: RunUntil + Settle.
  RefClock run;
  const int64_t run0 = NowNs();
  bool done = false;
  uint64_t check_calls = 0;
  int64_t check_ns = 0;
  int64_t worst_slice_ns = 0;
  uint64_t worst_slice_events = 0;
  uint64_t routing_peak = 0;
  uint64_t live_peak = 0;
  if (spans == nullptr) {
    // Half-length slices, so the traced repetitions' digests, taken with
    // full-length slices, check that slicing changes nothing.
    const auto pred = [&] { return workload::KvClientsDone(machine, d); };
    while (!done && machine.Now() - run_start_us < kKvRunCapUs) {
      run.Time([&] { done = machine.RunUntil(pred, shape.slice_us / 2); });
    }
  } else {
    // Fixed simulated-time slices; slicing leaves the trace digest unchanged
    // (run.py checks it against the untraced repetitions).
    const auto timed_done = [&] {
      const int64_t c0 = NowNs();
      const bool r = workload::KvClientsDone(machine, d);
      check_ns += NowNs() - c0;
      ++check_calls;
      return r;
    };
    const int phase = spans->Begin("run.until", root);
    std::string rows = "[";
    while (!done && machine.Now() - run_start_us < kKvRunCapUs) {
      const uint64_t e0 = machine.dispatched();
      const int s = spans->Begin("run.slice", phase);
      done = machine.RunUntil(timed_done, shape.slice_us);
      const int64_t ns = spans->End(s);
      const uint64_t events = machine.dispatched() - e0;
      uint64_t routing = 0;
      for (ClusterId c = 0; c < kKvClusters; ++c) {
        routing += machine.kernel(c).routing().size();
      }
      const uint64_t live = machine.TotalLiveProcesses();
      routing_peak = std::max(routing_peak, routing);
      live_peak = std::max(live_peak, live);
      // Worst per-event slice cost, over slices with enough events to time.
      if (events >= 1000 &&
          (worst_slice_events == 0 ||
           ns * static_cast<int64_t>(worst_slice_events) >
               worst_slice_ns * static_cast<int64_t>(events))) {
        worst_slice_ns = ns;
        worst_slice_events = events;
      }
      Fields row;
      row.Set("host_ms", ns / 1e6);
      row.Set("sim_end_us", static_cast<double>(machine.Now()));
      row.Set("events", static_cast<double>(events));
      row.Set("routing_entries", static_cast<double>(routing));
      row.Set("live_processes", static_cast<double>(live));
      rows += (rows.size() > 1 ? ", " : "") + row.Json();
      spans->args(s) = row;
    }
    rep.slices = rows + "]";
    spans->End(phase);
    // The stop predicate runs thousands of times per slice: its calls are
    // aggregated onto the run span rather than recorded one by one.
    spans->args(phase).Set("done_check_calls", static_cast<double>(check_calls));
    spans->args(phase).Set("done_check_ms", check_ns / 1e6);
  }
  const int64_t until_ns = NowNs() - run0;
  const auto settle = [&] { Timed(spans, "machine.settle", root, [&] { machine.Settle(); }); };
  int64_t run_ns = 0;
  if (spans == nullptr) {
    run.Time(settle);
    run_ns = run.raw_ns();
  } else {
    // Traced repetitions run without probes; their host time is raw only.
    settle();
    run_ns = NowNs() - run0;
  }

  workload::SloReport report;
  const int64_t slo_ns = Timed(spans, "workload.slo_report", root, [&] {
    report = workload::BuildSloReport(machine.tracer()->Events(), machine, d, done);
  });
  if (spans != nullptr) spans->End(root);

  const Metrics m = machine.metrics();
  const uint64_t planned =
      static_cast<uint64_t>(shape.kv.sessions) * shape.kv.requests_per_session;
  const uint64_t unfinished = planned > report.completed ? planned - report.completed : 0;
  const uint64_t events = machine.dispatched() - events0;
  const uint64_t messages = m.messages_sent - messages0;
  const SimTime span_us = machine.Now();

  rep.digest = machine.tracer()->digest().ToString();
  rep.ok = report.complete && report.mismatches == 0 && unfinished == 0;

  rep.sim.Set("planned", static_cast<double>(planned));
  rep.sim.Set("completed", static_cast<double>(report.completed));
  rep.sim.Set("unfinished", static_cast<double>(unfinished));
  rep.sim.Set("mismatches", static_cast<double>(report.mismatches));
  rep.sim.Set("stuck_sessions", static_cast<double>(std::count_if(
                                    d.clients.begin(), d.clients.end(),
                                    [&](Gpid pid) { return !machine.HasExited(pid); })));
  rep.sim.Set("retries", static_cast<double>(report.retries));
  rep.sim.Set("p50_us", static_cast<double>(report.p50_us));
  rep.sim.Set("p99_us", static_cast<double>(report.p99_us));
  rep.sim.Set("p999_us", static_cast<double>(report.p999_us));
  rep.sim.Set("max_us", static_cast<double>(report.max_us));
  rep.sim.Set("goodput_rps", report.goodput_rps);
  rep.sim.Set("failover_us",
              crash_at_us != 0 && m.last_recovery_complete_at > crash_at_us
                  ? static_cast<double>(m.last_recovery_complete_at - crash_at_us)
                  : 0.0);
  rep.sim.Set("events", static_cast<double>(events));
  rep.sim.Set("messages", static_cast<double>(messages));
  rep.sim.Set("span_us", static_cast<double>(span_us));
  rep.sim.Set("trace_events", static_cast<double>(machine.tracer()->total_recorded()));

  rep.host.Set("setup_s", setup.raw_s());
  rep.host.Set("setup_ref_s", setup.ref_s());
  rep.host.Set("run_s", run_ns / 1e9);
  rep.host.Set("run_ref_s", run.ref_s());
  rep.host.Set("probe_ns", run.median_probe_ns());
  rep.host.Set("units", static_cast<double>(report.completed - std::min(report.completed,
                                                                       report.mismatches)));

  if (spans != nullptr) {
    const BusStats bus = machine.bus().stats();
    const DiskStats fs0 = machine.fs_disk().drive(0).stats();
    const DiskStats fs1 = machine.fs_disk().drive(1).stats();
    uint64_t page_disk_writes = 0;
    for (uint32_t s = 0; s < machine.page_shard_count(); ++s) {
      page_disk_writes += machine.page_disk(s).drive(0).stats().writes +
                          machine.page_disk(s).drive(1).stats().writes;
    }
    Fields& l = rep.layer;
    l.Set("machine.boot_ms", boot_ns / 1e6);
    l.Set("workload.deploy_ms", deploy_ns / 1e6);
    l.Set("workload.done_check_calls", static_cast<double>(check_calls));
    l.Set("workload.done_check_ms", check_ns / 1e6);
    l.Set("workload.slo_report_ms", slo_ns / 1e6);
    l.Set("run.until_ms", until_ns / 1e6);
    l.Set("run.phase_ms", run_ns / 1e6);
    l.Set("sim.worst_slice_ns", static_cast<double>(worst_slice_ns));
    l.Set("sim.worst_slice_events", static_cast<double>(worst_slice_events));
    l.Set("core.routing_entries_peak", static_cast<double>(routing_peak));
    l.Set("core.live_processes_peak", static_cast<double>(live_peak));
    l.Set("core.deliveries_primary", static_cast<double>(m.deliveries_primary));
    l.Set("core.deliveries_backup", static_cast<double>(m.deliveries_backup));
    l.Set("core.deliveries_count_only", static_cast<double>(m.deliveries_count_only));
    l.Set("core.syncs", static_cast<double>(m.syncs));
    l.Set("core.sync_pages_shipped", static_cast<double>(m.sync_pages_shipped));
    l.Set("core.sync_stall_sim_us", static_cast<double>(m.sync_primary_stall_us));
    l.Set("paging.page_writes", static_cast<double>(m.page_writes));
    l.Set("disk.page_writes", static_cast<double>(page_disk_writes));
    l.Set("core.takeovers", static_cast<double>(m.takeovers));
    l.Set("core.rollforward_msgs_replayed", static_cast<double>(m.rollforward_msgs_replayed));
    l.Set("core.rollforward_replay_sim_us", static_cast<double>(m.rollforward_replay_us));
    l.Set("bus.frames_sent", static_cast<double>(bus.frames_sent));
    l.Set("bus.deliveries", static_cast<double>(bus.deliveries));
    l.Set("bus.busy_sim_us", static_cast<double>(bus.busy_us));
    l.Set("bus.failovers", static_cast<double>(bus.failovers));
    l.Set("disk.fs_writes", static_cast<double>(fs0.writes + fs1.writes));
    l.Set("disk.fs_batches", static_cast<double>(fs0.batches + fs1.batches));
    l.Set("disk.fs_queue_wait_sim_us", static_cast<double>(fs0.queue_wait_us + fs1.queue_wait_us));
    l.Set("servers.server_syncs", static_cast<double>(m.server_syncs));
    l.Set("avm.work_busy_sim_us", static_cast<double>(m.work_busy_us));
    l.Set("kernel.exec_busy_sim_us", static_cast<double>(m.exec_busy_us));
  }
  return rep;
}

// ---------------------------------------------------------- campaign ----

// Seeds per family in one repetition; the family's seed range starts at
// seed * kCampaignSeedsPerFamily, so every --seed names a disjoint range.
constexpr uint64_t kCampaignSeedsPerFamily = 40;
// Set-ups timed per repetition (a campaign-shaped machine: construct + Boot).
constexpr int kCampaignSetups = 9;

struct Family {
  const char* name;
  ScenarioResult (*run)(uint64_t, const CampaignOptions&);
};
constexpr Family kFamilies[] = {
    {"pairs", &RunScenario},
    {"kv", &RunKvScenario},
    {"file", &RunFileScenario},
};

// FNV-1a over the per-seed digests, in seed order.
void FoldDigest(uint64_t& h, const TraceDigest& d) {
  for (uint64_t v : {d.hash, d.count, static_cast<uint64_t>(d.last_ts)}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
}

Rep RunCampaignRep(uint64_t seed, Spans* spans) {
  Rep rep;
  const CampaignOptions opt;  // defaults: 4 clusters, determinism replay on
  const int root = spans != nullptr ? spans->Begin("campaign.rep", -1) : -1;
  if (spans != nullptr) spans->args(root).Set("seed", static_cast<double>(seed));

  // Set-up cost of the machines a scenario builds (three per seed).
  std::vector<int64_t> setups;
  for (int i = 0; i < kCampaignSetups; ++i) {
    MachineOptions mo;
    mo.config.num_clusters = opt.num_clusters;
    mo.config.sync_policy = opt.sync_policy;
    mo.seed = seed * kCampaignSeedsPerFamily + static_cast<uint64_t>(i);
    setups.push_back(Timed(spans, "machine.setup", root, [&] { Machine(mo).Boot(); }));
  }
  std::sort(setups.begin(), setups.end());

  uint64_t h = 14695981039346656037ull;
  uint64_t failed = 0;
  uint64_t takeovers = 0;
  uint64_t crashes = 0;
  uint64_t seeds = 0;
  const int64_t run0 = NowNs();
  for (const Family& f : kFamilies) {
    const int fam = spans != nullptr ? spans->Begin(std::string("fault.") + f.name, root) : -1;
    std::vector<int64_t> seed_ns;
    for (uint64_t i = 0; i < kCampaignSeedsPerFamily; ++i) {
      const uint64_t s = seed * kCampaignSeedsPerFamily + i;
      ScenarioResult r;
      seed_ns.push_back(Timed(spans, "fault.seed", fam, [&] { r = f.run(s, opt); }));
      if (!r.ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: campaign %s seed %" PRIu64 " failed: %s (%s)\n",
                     f.name, s, r.failure.c_str(), r.scenario.c_str());
      }
      FoldDigest(h, r.trace_digest);
      takeovers += r.takeovers;
      crashes += r.crashes_handled;
      ++seeds;
    }
    if (spans != nullptr) {
      spans->End(fam);
      std::sort(seed_ns.begin(), seed_ns.end());
      rep.layer.Set(std::string("fault.seed_ms.") + f.name + ".median",
                    seed_ns[seed_ns.size() / 2] / 1e6);
      rep.layer.Set(std::string("fault.seed_ms.") + f.name + ".max", seed_ns.back() / 1e6);
    }
  }
  const int64_t run_ns = NowNs() - run0;
  if (spans != nullptr) spans->End(root);

  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  rep.digest = buf;
  rep.ok = failed == 0;
  rep.sim.Set("seeds", static_cast<double>(seeds));
  rep.sim.Set("failed", static_cast<double>(failed));
  rep.sim.Set("takeovers", static_cast<double>(takeovers));
  rep.sim.Set("crashes_handled", static_cast<double>(crashes));
  rep.host.Set("setup_s", setups[setups.size() / 2] / 1e9);
  rep.host.Set("run_s", run_ns / 1e9);
  rep.host.Set("units", static_cast<double>(seeds - failed));
  if (spans != nullptr) rep.layer.Set("fault.takeovers", static_cast<double>(takeovers));
  return rep;
}

// ------------------------------------------------------------------ main ----

void PrintRep(int index, uint64_t seed, bool traced, const Rep& rep) {
  std::printf("{\"rep\": %d, \"seed\": %" PRIu64 ", \"traced\": %d, \"ok\": %d, "
              "\"digest\": \"%s\", \"sim\": %s, \"host\": %s, \"layer\": %s, \"slices\": %s}\n",
              index, seed, traced ? 1 : 0, rep.ok ? 1 : 0, rep.digest.c_str(),
              rep.sim.Json().c_str(), rep.host.Json().c_str(), rep.layer.Json().c_str(),
              rep.slices.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_workloads --workload "
               "kv-steady|kv-deep-failover|kv-wide|campaign-mixed\n"
               "                        --seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* val = argv[i + 1];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      trace = std::string(val) == "1";
    } else if (arg == "--spans") {
      spans_path = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(seconds > 0)) return Usage();

  // A kv run covers kKvSeedsPerRun consecutive workload seeds: a seed's
  // slowest request varies by about 5 % from seed to seed, and kv-wide's
  // host cost per request by about 20 % between two groups of seeds, so one
  // seed per run would make the run-to-run spread a draw of the seed. A
  // campaign repetition already covers 120 scenario seeds.
  std::vector<uint64_t> seeds;
  std::function<Rep(uint64_t, Spans*)> run_rep;
  KvShape (*shape)(uint64_t) = nullptr;
  if (workload == "kv-wide") shape = &KvWide;
  if (workload == "kv-steady") shape = &KvSteady;
  if (workload == "kv-deep-failover") shape = &KvDeepFailover;
  if (shape != nullptr) {
    for (uint64_t j = 0; j < kKvSeedsPerRun; ++j) seeds.push_back(seed * kKvSeedsPerRun + j);
    run_rep = [shape](uint64_t s, Spans* sp) { return RunKvRep(shape(s), sp); };
  } else if (workload == "campaign-mixed") {
    seeds.push_back(seed);
    run_rep = &RunCampaignRep;
  } else {
    return Usage();
  }

  // Cycle through the seeds, each untraced and then (with --trace 1) traced,
  // until the measuring time is used and every (seed, kind) slot has run
  // often enough to check that its repetitions agree.
  const int kinds = trace ? 2 : 1;
  const int min_reps = trace ? 1 : 2;
  std::vector<int> done(seeds.size() * kinds, 0);
  Spans spans;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int i = 0;; ++i) {
    const size_t slot = static_cast<size_t>(i) % done.size();
    const uint64_t s = seeds[slot / kinds];
    const bool traced = slot % kinds == 1;
    PrintRep(i, s, traced, run_rep(s, traced ? &spans : nullptr));
    ++done[slot];
    if (NowNs() >= deadline && *std::min_element(done.begin(), done.end()) >= min_reps) break;
  }
  if (trace && !spans_path.empty() && !spans.WriteChrome(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("{\"end\": 1, \"peak_rss_mb\": %.17g}\n", PeakRssMb());
  return 0;
}
