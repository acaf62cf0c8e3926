// E12 — full-machine throughput on the ShardPlan layout (DESIGN.md §17):
// events/s of the complete Machine (kernels, servers, bus, disks) and
// campaign seeds/s.
//
//   events_per_s   dispatched simulation events per wall-clock second
//   seeds_per_s    completed campaign scenarios per wall-clock second
//
// A machine runs its windowed engine on one thread (DESIGN.md §16.4). A
// campaign seed that fails its invariants aborts the row. The baseline
// gates each row against its own history.

#include <benchmark/benchmark.h>

#include "src/fault/campaign.h"
#include "src/machine/machine.h"
#include "src/workload/kv_service.h"

namespace auragen::bench {
namespace {

// One serving-shaped machine run: boot, deploy the KV workload sized to the
// topology, run to completion. Returns the events dispatched.
uint64_t RunMachine(uint32_t clusters) {
  MachineOptions mo;
  mo.config.num_clusters = clusters;
  mo.seed = 1;
  mo.trace.enabled = true;
  mo.trace.unbounded = false;
  mo.trace.ring_capacity = 4096;
  Machine machine(mo);
  machine.Boot();
  workload::KvOptions kv;
  kv.sessions = clusters * 8;
  kv.partitions = clusters / 2;
  kv.requests_per_session = 8;
  kv.seed = 1;
  workload::KvDeployment d = workload::DeployKv(machine, kv);
  machine.RunUntil([&] { return workload::KvClientsDone(machine, d); },
                   600'000'000);
  return machine.dispatched();
}

void BM_MachineScaling(benchmark::State& state) {
  const uint32_t clusters = static_cast<uint32_t>(state.range(0));
  uint64_t dispatched = 0;
  for (auto _ : state) {
    dispatched += RunMachine(clusters);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(dispatched), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_MachineScaling)
    ->ArgName("clusters")
    ->Arg(8)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

constexpr uint64_t kCampaignFirstSeed = 1;
constexpr uint64_t kCampaignSeeds = 3;

// Campaign throughput: full scenarios (reference + faulted run per seed)
// at 8 clusters.
void BM_MachineCampaign(benchmark::State& state) {
  CampaignOptions opt;
  opt.num_clusters = 8;
  opt.check_determinism = false;
  uint64_t seeds_done = 0;
  bool all_ok = true;
  for (auto _ : state) {
    RunCampaign(kCampaignFirstSeed, kCampaignSeeds, opt, [&](const ScenarioResult& r) {
      ++seeds_done;
      all_ok = all_ok && r.ok;
    });
  }
  if (!all_ok) {
    state.SkipWithError("a campaign seed failed its invariants");
  }
  state.counters["seeds_per_s"] =
      benchmark::Counter(static_cast<double>(seeds_done), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_MachineCampaign)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
