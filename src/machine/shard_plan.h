// ShardPlan: how a machine topology maps onto ShardedEngine shards, and
// where the conservative lookahead comes from.
//
// The plan is the integration seam between the Machine's configuration and
// the windowed engine (sim/sharded_engine.h): shard 0 hosts every shared
// component (segment 0's bus arbitration, the fabric trunk, disks, the
// page/process servers' bus-facing side), shard 1+c hosts cluster c — its
// work processors, executive, kernel timers — and each additional fabric
// segment's bus + switch gets its own shard after the cluster shards. The
// lookahead is derived, not chosen: it is the minimum latency by which any
// shard can affect another — the smallest of the per-segment bus
// arbitration times (cluster -> bus), the disk seek floor (bus -> disk
// completion), and, on a multi-segment fabric, the switch store-and-forward
// latency (segment bus <-> trunk). §5.1's atomic-broadcast bus guarantees
// no cluster observes a remote effect sooner than that.
//
// The synthetic ClusterModel (sim/cluster_model.h) uses the same layout, so
// scaling results measured there transfer to the machine integration.

#ifndef AURAGEN_SRC_MACHINE_SHARD_PLAN_H_
#define AURAGEN_SRC_MACHINE_SHARD_PLAN_H_

#include <cstdint>
#include <string>

#include "src/base/types.h"
#include "src/bus/topology.h"
#include "src/core/config.h"
#include "src/disk/disk.h"
#include "src/sim/sharded_engine.h"

namespace auragen {

struct ShardPlan {
  uint32_t num_clusters = 1;
  uint32_t num_segments = 1;
  uint32_t num_shards = 2;     // 1 shared + one per cluster + one per extra segment
  SimTime lookahead_us = 1;    // min cross-shard model latency

  ShardId shard_of_cluster(ClusterId c) const { return 1 + c; }
  // Segment 0's bus shares the shared shard (the pre-fabric layout, which
  // keeps single-segment digests bit-identical); segment s > 0 lives on its
  // own shard after the cluster shards.
  ShardId shard_of_segment(SegmentId s) const {
    return s == 0 ? kSharedShard : 1 + num_clusters + (s - 1);
  }
  ShardId shared_shard() const { return kSharedShard; }

  // Engine options realizing this plan.
  ShardedEngineOptions EngineOptions() const;

  std::string Describe() const;
};

// Derives the plan from the machine configuration (whose resolved Topology
// names the segments). Checks that the derived lookahead is a usable
// (>= 1us) conservative window — a zero-latency bus, disk, or switch would
// serialize the shards and is rejected loudly rather than silently
// degrading.
ShardPlan MakeShardPlan(const SystemConfig& config, const DiskConfig& disk);

}  // namespace auragen

#endif  // AURAGEN_SRC_MACHINE_SHARD_PLAN_H_
