// The full Machine on the ShardPlan layout (DESIGN.md §17): shard 0 hosts
// the bus and disks, shard 1+c hosts cluster c.

#include <gtest/gtest.h>

#include "src/machine/machine.h"

namespace auragen {
namespace {

TEST(MachineShards, ShardPlanDescribesTheLayout) {
  MachineOptions mo;
  mo.config.num_clusters = 4;
  Machine machine(mo);
  EXPECT_EQ(machine.shard_plan().num_shards, 5u);
  EXPECT_EQ(machine.shard_plan().shard_of_cluster(2), 3u);
  EXPECT_EQ(machine.shard_plan().shared_shard(), kSharedShard);
}

}  // namespace
}  // namespace auragen
