// E11 — windowed engine throughput (DESIGN.md §16): events/s of the
// sharded conservative-window engine on machine-shaped topologies (8 and 32
// clusters, shard 0 = shared bus), driven by the synthetic ClusterModel.
//
//   events_per_s   dispatched simulation events per wall-clock second
//
// The engine runs every window on one thread (DESIGN.md §16.4). The
// baseline gates each row against its own history.

#include <benchmark/benchmark.h>

#include "src/sim/cluster_model.h"
#include "src/sim/sharded_engine.h"
#include "src/trace/trace.h"

namespace auragen::bench {
namespace {

constexpr SimTime kHorizonUs = 60'000;
constexpr uint64_t kSeed = 1;

// Runs the model to completion and returns the events dispatched; the
// trace ring folds every event into the digest, as a traced machine would.
uint64_t RunModel(uint32_t clusters) {
  ShardedEngineOptions seo;
  seo.num_shards = 1 + clusters;
  seo.lookahead_us = 2;
  ShardedEngine engine(seo);
  TraceOptions to;
  to.enabled = true;
  to.unbounded = false;  // flight-recorder ring: digest covers everything
  to.ring_capacity = 1024;
  Tracer tracer(to);
  engine.set_tracer(&tracer);
  ClusterModelOptions cmo;
  cmo.clusters = clusters;
  cmo.seed = kSeed;
  cmo.horizon_us = kHorizonUs;
  ClusterModel model(engine, cmo);
  model.Install();
  return engine.Run();
}

void BM_EngineScaling(benchmark::State& state) {
  const uint32_t clusters = static_cast<uint32_t>(state.range(0));
  uint64_t dispatched = 0;
  for (auto _ : state) {
    dispatched += RunModel(clusters);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(dispatched), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_EngineScaling)
    ->ArgName("clusters")
    ->Arg(8)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace auragen::bench

BENCHMARK_MAIN();
