// The segmented intercluster fabric (src/bus/fabric.h): hierarchical
// routing, the §5.1 atomicity guarantees across segment boundaries, switch
// hold-and-drain semantics, the single-segment bit-identity promise, and
// digest stability across machine thread counts and topologies.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/avm/assembler.h"
#include "src/bus/fabric.h"
#include "src/bus/topology.h"
#include "src/fault/campaign.h"
#include "src/machine/machine.h"
#include "src/sim/engine.h"

namespace auragen {
namespace {

struct Recorder : BusEndpoint {
  std::vector<Frame> frames;
  void OnFrame(const Frame& frame) override { frames.push_back(frame); }
};

// Two segments of two clusters each: 0,1 | 2,3.
struct FabricFixture {
  Engine engine;
  Topology topo = Topology::Uniform(2, 2);
  Fabric fabric{engine, topo};
  Recorder endpoints[4];

  FabricFixture() {
    for (ClusterId c = 0; c < 4; ++c) {
      fabric.AttachEndpoint(c, &endpoints[c]);
    }
  }
};

TEST(Fabric, SameSegmentTrafficNeverCrossesTheTrunk) {
  FabricFixture f;
  f.fabric.Transmit(0, MaskOf(1), Bytes{9});
  f.engine.Run();
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  EXPECT_EQ(f.fabric.trunk_forwards(), 0u);
  EXPECT_EQ(f.fabric.switch_stats(0).forwarded, 0u);
}

TEST(Fabric, CrossSegmentMulticastReachesEveryTargetOnce) {
  FabricFixture f;
  f.fabric.Transmit(0, MaskOf(1) | MaskOf(2) | MaskOf(3), Bytes{42});
  f.engine.Run();
  // All-or-none across the boundary: the local target and both remote
  // targets each see the frame exactly once; the source does not.
  EXPECT_TRUE(f.endpoints[0].frames.empty());
  ASSERT_EQ(f.endpoints[1].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[3].frames.size(), 1u);
  EXPECT_EQ(*f.endpoints[2].frames[0].payload, Bytes{42});
  // The whole frame crossed the trunk once and came back as one copy per
  // target segment (origin's local target included).
  EXPECT_EQ(f.fabric.switch_stats(0).forwarded, 1u);
  EXPECT_EQ(f.fabric.trunk_forwards(), 2u);
  EXPECT_EQ(f.fabric.switch_stats(1).injected, 1u);
}

// §5.1 guarantee 2 across segments: any two clusters that are targets of
// two frames see those frames in the same relative order, regardless of
// which segments the senders sat in.
void ExpectPairwiseConsistentOrder(const Recorder* endpoints, uint32_t n) {
  for (ClusterId a = 0; a < n; ++a) {
    for (ClusterId b = a + 1; b < n; ++b) {
      std::vector<uint64_t> at_a, at_b;  // frames common to both, by payload tag
      for (const Frame& fr : endpoints[a].frames) {
        if (MaskHas(fr.targets, b)) {
          at_a.push_back((*fr.payload)[0]);
        }
      }
      for (const Frame& fr : endpoints[b].frames) {
        if (MaskHas(fr.targets, a)) {
          at_b.push_back((*fr.payload)[0]);
        }
      }
      EXPECT_EQ(at_a, at_b) << "clusters " << a << " and " << b
                            << " disagree on their common delivery order";
    }
  }
}

TEST(Fabric, CrossSegmentOrderConsistentAtCommonDestinations) {
  FabricFixture f;
  // Senders in both segments, every frame targeting destinations in both
  // segments — the shape that breaks a naive deliver-locally-and-forward
  // fabric (order could invert between segments).
  for (uint8_t i = 0; i < 24; ++i) {
    const ClusterId src = i % 4;
    const ClusterMask all = MaskOfRange(0, 4) & ~MaskOf(src);
    f.fabric.Transmit(src, all, Bytes{i});
  }
  f.engine.Run();
  for (ClusterId c = 0; c < 4; ++c) {
    EXPECT_EQ(f.endpoints[c].frames.size(), 18u);  // 24 frames, src excluded
  }
  ExpectPairwiseConsistentOrder(f.endpoints, 4);
}

TEST(Fabric, OrderSurvivesSeededLineAndSwitchFailures) {
  FabricFixture f;
  Rng rng(7);
  for (uint8_t i = 0; i < 40; ++i) {
    const ClusterId src = static_cast<ClusterId>(rng.Below(4));
    ClusterMask targets;
    for (ClusterId c = 0; c < 4; ++c) {
      if (c != src && rng.Chance(0.6)) {
        targets |= MaskOf(c);
      }
    }
    if (!targets.any()) {
      targets = MaskOf((src + 1) % 4);
    }
    f.fabric.Transmit(src, targets, Bytes{i});
    switch (i) {
      case 10:
        f.fabric.FailLine(0);
        break;
      case 18:
        f.fabric.FailSwitch(1);
        break;
      case 26:
        f.fabric.RestoreSwitch(1);
        break;
      case 30:
        f.fabric.RestoreLine(0);
        break;
      default:
        break;
    }
  }
  f.engine.Run();
  uint64_t total = 0;
  for (const Recorder& r : f.endpoints) {
    total += r.frames.size();
  }
  BusStats stats = f.fabric.stats();
  EXPECT_EQ(total, stats.deliveries);  // nothing dropped, nothing duplicated
  ExpectPairwiseConsistentOrder(f.endpoints, 4);
}

TEST(Fabric, FailedSwitchHoldsThenDrainsFifo) {
  FabricFixture f;
  f.fabric.FailSwitch(0);
  EXPECT_FALSE(f.fabric.SwitchOk(0));
  f.fabric.Transmit(0, MaskOf(2), Bytes{1});
  f.fabric.Transmit(1, MaskOf(3), Bytes{2});
  f.fabric.Transmit(2, MaskOf(0), Bytes{3});  // inbound: holds at the trunk
  f.engine.Run();
  EXPECT_TRUE(f.endpoints[2].frames.empty());
  EXPECT_TRUE(f.endpoints[3].frames.empty());
  EXPECT_TRUE(f.endpoints[0].frames.empty());
  EXPECT_EQ(f.fabric.switch_stats(0).held, 2u);

  f.fabric.RestoreSwitch(0);
  f.engine.Run();
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[3].frames.size(), 1u);
  ASSERT_EQ(f.endpoints[0].frames.size(), 1u);
  EXPECT_EQ(*f.endpoints[0].frames[0].payload, Bytes{3});
  // Egress order preserved through the hold.
  EXPECT_EQ(*f.endpoints[2].frames[0].payload, Bytes{1});
  EXPECT_EQ(*f.endpoints[3].frames[0].payload, Bytes{2});
}

TEST(Fabric, DetachedClusterSkippedOthersStillDelivered) {
  FabricFixture f;
  f.fabric.DetachEndpoint(3);
  f.fabric.Transmit(0, MaskOf(2) | MaskOf(3), Bytes{5});
  f.engine.Run();
  ASSERT_EQ(f.endpoints[2].frames.size(), 1u);
  EXPECT_TRUE(f.endpoints[3].frames.empty());
}

// ------------------------------------------------------------ machine level

TraceDigest BootDigest(MachineOptions options) {
  options.trace.enabled = true;
  options.trace.unbounded = true;
  options.trace.kind_mask = ~uint64_t{0};
  Machine machine(options);
  machine.Boot();
  machine.Run(150'000);
  return machine.tracer()->digest();
}

TEST(Fabric, SingleSegmentTopologyIsBitIdenticalToDefault) {
  MachineOptions defaulted;
  defaulted.config.num_clusters = 3;

  MachineOptions explicit_topo;
  explicit_topo.WithTopology(Topology::SingleSegment(3));

  EXPECT_EQ(BootDigest(defaulted), BootDigest(explicit_topo));
}

TEST(Fabric, MachineRejectsClusterCountDisagreement) {
  MachineOptions options;
  options.config.topology = Topology::Uniform(2, 2);  // 4 clusters
  options.config.num_clusters = 5;                    // bypassing WithTopology
  EXPECT_DEATH(Machine{options}, "single source of truth|keeps them in sync");
}

TEST(Fabric, PlacementRejectsBackupInOtherSegment) {
  MachineOptions options;
  options.WithTopology(Topology::Uniform(2, 2));
  options.placement.file = ClusterPair{0, 2};       // segments 0 and 1
  options.placement.file_disk = ClusterPair{0, 2};
  Machine machine(options);
  EXPECT_DEATH(machine.Boot(), "different fabric segments|span fabric segments");
}

// The campaign exercises boot, servers, user workloads, faults, and the
// determinism replay (the faulted run's trace digest must reproduce) on
// each fabric shape.
TEST(Fabric, CampaignScenarioPassesAcrossTopologies) {
  const struct {
    uint32_t clusters;
    uint32_t segments;
  } shapes[] = {{4, 2}, {8, 4}};
  const uint64_t seed = 11;
  for (const auto& shape : shapes) {
    CampaignOptions opt;
    opt.num_clusters = shape.clusters;
    opt.num_segments = shape.segments;
    ScenarioResult r = RunScenario(seed, opt);
    EXPECT_TRUE(r.ok) << shape.segments << " segments: " << r.failure;
  }
}

TEST(Fabric, SegmentPartitionScenarioSurvives) {
  CampaignOptions opt;
  opt.num_segments = 2;
  // Find the first seeds whose plan is the segment-partition scenario; run
  // them end to end (reference, faulted, determinism replay).
  uint32_t run = 0;
  for (uint64_t seed = 1; seed <= 120 && run < 2; ++seed) {
    FaultPlan plan = MakeScenarioPlan(seed, opt);
    if (plan.scenario != ScenarioKind::kSegmentPartition) {
      continue;
    }
    ++run;
    ScenarioResult r = RunScenario(seed, opt);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
  }
  EXPECT_GE(run, 1u) << "no segment-partition plan in seeds 1..120";
}

// Ping writes `rounds` words to a named channel; pong echoes each back.
// Placed in different segments, every round trip crosses the trunk twice.
Executable Ping(int index, int rounds) {
  return MustAssemble(R"(
start:
    li r1, name
    li r2, 6
    sys open
    mov r10, r0
    li r8, 0
loop:
    li r11, buf
    st r8, r11, 0
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    mov r1, r10
    li r2, buf
    li r3, 4
    sys read
    addi r8, r8, 1
    li r12, )" + std::to_string(rounds) + R"(
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:s)" + std::to_string(index) + R"("
buf: .word 0
)");
}

Executable Pong(int index, int rounds) {
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
    mov r1, r10
    li r2, buf
    li r3, 4
    sys write
    addi r8, r8, 1
    li r12, )" + std::to_string(rounds) + R"(
    blt r8, r12, loop
    exit 0
.data
name: .ascii "ch:s)" + std::to_string(index) + R"("
buf: .word 0
)");
}

TEST(Fabric, FourSegment64ClusterMachineBootsAndServes) {
  MachineOptions options;
  options.WithTopology(Topology::Uniform(4, 16));
  ASSERT_EQ(options.config.num_clusters, 64u);
  Machine machine(options);
  machine.Boot();
  EXPECT_EQ(machine.bus().num_segments(), 4u);
  EXPECT_EQ(machine.shard_plan().num_shards, 1u + 64u + 3u);

  // A cross-segment ping/pong pair per segment boundary: the channel
  // fabrication, data frames, and exit records all ride the trunk.
  std::vector<Gpid> pids;
  for (uint32_t i = 0; i < 4; ++i) {
    const ClusterId ping_home = static_cast<ClusterId>(16 * i + 2);
    const ClusterId pong_home = static_cast<ClusterId>((16 * (i + 1) + 5) % 64);
    Machine::UserSpawnOptions popts;
    popts.backup_cluster = static_cast<ClusterId>(16 * i + 3);
    Machine::UserSpawnOptions qopts;
    qopts.backup_cluster = static_cast<ClusterId>((16 * (i + 1) + 6) % 64);
    pids.push_back(
        machine.SpawnUserProgram(ping_home, Ping(static_cast<int>(i), 4), popts));
    pids.push_back(
        machine.SpawnUserProgram(pong_home, Pong(static_cast<int>(i), 4), qopts));
  }
  EXPECT_TRUE(machine.RunUntilAllExited(120'000'000));
  machine.Settle();
  for (Gpid pid : pids) {
    ASSERT_TRUE(machine.HasExited(pid));
    EXPECT_EQ(machine.ExitStatus(pid), 0);
  }
  EXPECT_GT(machine.bus().trunk_forwards(), 0u);
}

}  // namespace
}  // namespace auragen
