// ClusterModel: a deterministic synthetic machine-shaped workload for the
// ShardedEngine — the scaling benchmark and the digest-equivalence tests
// drive this instead of the full Machine.
//
// The model mirrors the Auragen topology one-to-one with the shard layout
// the real machine will use (machine/shard_plan.h): shard 0 is the shared
// intercluster bus, shard 1+c is cluster c. Each cluster runs a stream of
// quantum events (a seeded FNV-mix spin standing in for AVM guest
// execution), and every few quanta transmits a frame: a cross-shard post to
// the bus shard after the arbitration latency, which the bus forwards to a
// destination cluster after the frame transit time. Both latencies are >=
// the engine lookahead, so the model honors the conservative contract the
// same way the real bus/disk cost model does (§5.1: no remote effect sooner
// than the minimum bus latency).
//
// Every piece of state is owned by exactly one shard (per-cluster
// accumulators by their cluster, the frame counter by the bus shard), so
// each window is a function of the shard's own state, and Fingerprint() —
// a fold over all end-state — must come out bit-identical for every run
// of the same configuration, as must the trace digest (kBusTx on accept,
// kBusRx per delivery).

#ifndef AURAGEN_SRC_SIM_CLUSTER_MODEL_H_
#define AURAGEN_SRC_SIM_CLUSTER_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/base/rng.h"
#include "src/base/types.h"
#include "src/sim/sharded_engine.h"

namespace auragen {

struct ClusterModelOptions {
  uint32_t clusters = 8;
  // Must equal the engine's lookahead: the bus arbitration latency, i.e. the
  // soonest a cluster-side transmit can reach the shared bus shard.
  SimTime arbitration_us = 2;
  // Bus transit time from accept to delivery; must be >= arbitration_us.
  SimTime frame_time_us = 5;
  SimTime quantum_us = 3;        // per-cluster event cadence
  uint32_t work_per_event = 64;  // FNV-mix iterations per quantum (AVM stand-in)
  uint32_t send_every = 4;       // every Nth quantum transmits a frame
  SimTime horizon_us = 100'000;  // quanta stop rescheduling at this time
  uint64_t seed = 1;
};

class ClusterModel {
 public:
  // The engine must have 1 + clusters shards and lookahead <= arbitration_us.
  ClusterModel(ShardedEngine& engine, ClusterModelOptions options);

  ClusterModel(const ClusterModel&) = delete;
  ClusterModel& operator=(const ClusterModel&) = delete;

  // Schedules the initial quantum on every cluster shard.
  void Install();

  // Deterministic digest of all end-state (accumulators, counters): the
  // second equivalence oracle next to the trace digest.
  uint64_t Fingerprint() const;

  uint64_t frames_accepted() const { return bus_frames_; }

 private:
  static ShardId ShardOfCluster(ClusterId c) { return 1 + c; }

  void Quantum(ClusterId c);
  void BusAccept(ClusterId src, uint64_t payload);
  void Deliver(ClusterId dst, uint64_t frame_id, uint64_t payload);

  ShardedEngine& engine_;
  const ClusterModelOptions opt_;

  struct PerCluster {
    uint64_t accum = 14695981039346656037ull;  // FNV-1a offset basis
    uint64_t quanta = 0;
    uint64_t delivered = 0;
    uint32_t since_send = 0;
    Rng rng{0};
  };
  std::vector<PerCluster> clusters_;  // cluster c: touched only on shard 1+c
  uint64_t bus_frames_ = 0;           // touched only on the bus shard
};

}  // namespace auragen

#endif  // AURAGEN_SRC_SIM_CLUSTER_MODEL_H_
