// Engine cancel/clock regression tests plus the ShardedEngine determinism
// suite: FIFO tie-breaks across shard merges, window semantics, the
// lookahead contract, and the parallel-vs-sequential digest matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/machine/shard_plan.h"
#include "src/sim/cluster_model.h"
#include "src/sim/engine.h"
#include "src/sim/sharded_engine.h"
#include "src/trace/trace.h"

namespace auragen {
namespace {

// --- Engine::Cancel bookkeeping ---------------------------------------

TEST(EngineCancel, AfterFireCannotKillSlotReuse) {
  // The ABA case the old cancelled-id list got wrong at scale: an id kept
  // past its event's dispatch must stay a no-op even when the slot has been
  // handed to a new event.
  Engine engine(Engine::kNoLogClock);
  bool second_fired = false;
  EventId first = engine.Schedule(1, [] {});
  engine.Run();
  // The freed slot is reused immediately; only the generation differs.
  EventId second = engine.Schedule(1, [&] { second_fired = true; });
  EXPECT_NE(first, second);
  engine.Cancel(first);  // must not touch the reused slot
  EXPECT_EQ(engine.live_events(), 1u);
  engine.Run();
  EXPECT_TRUE(second_fired);
}

TEST(EngineCancel, FiredIdsLeaveNoResidue) {
  // Cancelling after the fact used to append to a forever-growing vector
  // scanned on every dispatch. Now it's a generation check: nothing is
  // retained for fired ids, and stale heap entries exist only for events
  // cancelled while pending — and drain as they surface.
  Engine engine(Engine::kNoLogClock);
  std::vector<EventId> fired_ids;
  for (int round = 0; round < 100; ++round) {
    fired_ids.push_back(engine.Schedule(1, [] {}));
    engine.Run();
    for (EventId id : fired_ids) {
      engine.Cancel(id);  // all no-ops
    }
    EXPECT_EQ(engine.stale_heap_entries(), 0u) << "round " << round;
  }

  // Cancel-while-pending leaves one stale entry each...
  std::vector<EventId> pending;
  for (int i = 0; i < 8; ++i) {
    pending.push_back(engine.Schedule(10, [] {}));
  }
  for (EventId id : pending) {
    engine.Cancel(id);
  }
  EXPECT_EQ(engine.stale_heap_entries(), 8u);
  EXPECT_TRUE(engine.Empty());
  // ...which vanish the next time the heap drains.
  engine.Run();
  EXPECT_EQ(engine.stale_heap_entries(), 0u);
}

TEST(EngineCancel, DoubleCancelIsNoop) {
  Engine engine(Engine::kNoLogClock);
  bool fired = false;
  EventId id = engine.Schedule(5, [&] { fired = true; });
  EventId other = engine.Schedule(5, [&] { fired = true; });
  engine.Cancel(id);
  engine.Cancel(id);
  engine.Cancel(kNoEvent);
  engine.Run();
  EXPECT_TRUE(fired);  // `other` still fires
  engine.Cancel(other);  // after fire: no-op
}

TEST(EngineCancel, PreservesFifoOfSurvivors) {
  Engine engine(Engine::kNoLogClock);
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(engine.Schedule(5, [&order, i] { order.push_back(i); }));
  }
  engine.Cancel(ids[1]);
  engine.Cancel(ids[4]);
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
}

// --- Engine clock semantics at run cut-offs ---------------------------

TEST(EngineClock, DispatchLimitDoesNotFastForward) {
  // A limited run did not simulate through the horizon; advancing the clock
  // to `until` anyway would timestamp post-run assertions in a future the
  // run never reached.
  Engine engine(Engine::kNoLogClock);
  for (SimTime t : {10u, 20u, 30u}) {
    engine.ScheduleAt(t, [] {});
  }
  engine.set_dispatch_limit(2);
  uint64_t n = engine.Run(100);
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(engine.dispatch_limit_hit());
  EXPECT_EQ(engine.Now(), 20u);  // the last earned instant, not 100
}

TEST(EngineClock, StopDoesNotFastForward) {
  Engine engine(Engine::kNoLogClock);
  engine.Schedule(10, [&] { engine.Stop(); });
  engine.Schedule(20, [] {});
  engine.Run(100);
  EXPECT_EQ(engine.Now(), 10u);
}

TEST(EngineClock, CleanHorizonStillFastForwards) {
  Engine engine(Engine::kNoLogClock);
  engine.Schedule(10, [] {});
  engine.Run(100);
  EXPECT_EQ(engine.Now(), 100u);
}

// --- Engine::RunBefore is a Step loop in one call ----------------------

// A seeded event script: each event logs its tag and, by its own random
// word, may schedule a child (sometimes at the same instant) and cancel an
// earlier event, pending or not. Two scripts built from one seed make the
// same schedules and cancels as long as they dispatch in the same order.
class EventScript {
 public:
  explicit EventScript(uint64_t seed) : engine_(Engine::kNoLogClock) {
    Rng rng(seed);
    for (uint32_t tag = 0; tag < 60; ++tag) {
      Add(tag, rng.Below(100), rng.Next());
    }
  }
  EventScript(const EventScript&) = delete;
  EventScript& operator=(const EventScript&) = delete;

  Engine& engine() { return engine_; }
  std::vector<uint64_t>& log() { return log_; }

 private:
  void Add(uint64_t tag, SimTime when, uint64_t word) {
    ids_.push_back(engine_.ScheduleAt(when, [this, tag, word] { Fire(tag, word); }));
  }
  void Fire(uint64_t tag, uint64_t word) {
    log_.push_back(tag);
    if (word % 3 == 0 && tag < 100'000) {
      Add(tag * 10 + 1000, engine_.Now() + (word >> 8) % 20,
          word * 6364136223846793005ull + 1442695040888963407ull);
    }
    if (word % 5 == 0) {
      engine_.Cancel(ids_[(word >> 16) % ids_.size()]);
    }
  }

  Engine engine_;
  std::vector<EventId> ids_;
  std::vector<uint64_t> log_;
};

TEST(EngineRunBefore, MatchesStepLoop) {
  constexpr uint64_t kAfter = ~0ull;  // marks the after-dispatch hook in the log
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (SimTime end : {0u, 1u, 17u, 50u, 99u, 150u}) {
      for (uint64_t limit : {0u, 1u, 25u}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " end " + std::to_string(end) +
                     " limit " + std::to_string(limit));
        EventScript batch(seed);
        EventScript loop(seed);
        batch.engine().set_dispatch_limit(limit);
        loop.engine().set_dispatch_limit(limit);

        uint64_t n = batch.engine().RunBefore(end, [&] { batch.log().push_back(kAfter); });
        uint64_t want = 0;
        while (end != 0 && loop.engine().Step(end - 1)) {
          loop.log().push_back(kAfter);
          ++want;
        }
        EXPECT_EQ(n, want);
        EXPECT_EQ(batch.log(), loop.log());
        EXPECT_EQ(batch.engine().Now(), loop.engine().Now());
        EXPECT_EQ(batch.engine().dispatched(), loop.engine().dispatched());
        EXPECT_EQ(batch.engine().last_dispatched(), loop.engine().last_dispatched());
        EXPECT_EQ(batch.engine().live_events(), loop.engine().live_events());
        EXPECT_EQ(batch.engine().stale_heap_entries(), loop.engine().stale_heap_entries());
        EXPECT_EQ(batch.engine().dispatch_limit_hit(), loop.engine().dispatch_limit_hit());

        // The leftovers, cancelled entries included, drain identically too.
        batch.engine().set_dispatch_limit(0);
        loop.engine().set_dispatch_limit(0);
        batch.engine().RunBefore(kSimForever);
        loop.engine().Run();
        EXPECT_EQ(batch.log(), loop.log());
        EXPECT_TRUE(batch.engine().Empty());
        EXPECT_EQ(batch.engine().stale_heap_entries(), 0u);
        if (HasFailure()) {
          return;
        }
      }
    }
  }
}

// --- ShardedEngine windows and merges ---------------------------------

TEST(ShardedEngine, TiesMergeInShardOrder) {
  // Same-instant records from different shards must fold into the master
  // tracer in shard order — the exact interleaving a sequential engine
  // produces — or the digest oracle is worthless.
  ShardedEngineOptions seo;
  seo.num_shards = 3;
  TraceOptions to;
  to.enabled = true;
  Tracer tracer(to);
  ShardedEngine engine(seo);
  engine.set_tracer(&tracer);
  // Schedule in reverse shard order so FIFO-of-scheduling cannot mask a
  // broken merge.
  for (uint32_t s = 3; s-- > 0;) {
    engine.ScheduleAtOn(s, 7, [&engine, s] {
      engine.Trace(TraceEventKind::kSend, s, 100 + s, 0, 0, 0);
    });
  }
  engine.Run(10);
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(events[s].ts, 7u);
    EXPECT_EQ(events[s].gpid, 100 + s) << "merge order broke at position " << s;
  }
}

TEST(ShardedEngine, CrossShardPostsHonorLatency) {
  ShardedEngineOptions seo;
  seo.num_shards = 2;
  seo.lookahead_us = 4;
  ShardedEngine engine(seo);
  std::vector<std::string> log;
  engine.ScheduleOn(1, 5, [&] {
    log.push_back("cluster@" + std::to_string(engine.ShardNow(1)));
    engine.ScheduleOn(kSharedShard, 4, [&] {
      log.push_back("bus@" + std::to_string(engine.ShardNow(kSharedShard)));
    });
  });
  engine.Run(100);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "cluster@5");
  EXPECT_EQ(log[1], "bus@9");
  EXPECT_EQ(engine.Now(), 100u);
  EXPECT_TRUE(engine.Empty());
}

TEST(ShardedEngineDeath, LookaheadContractViolationPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedEngineOptions seo;
  seo.num_shards = 2;
  seo.lookahead_us = 5;
  ShardedEngine engine(seo);
  engine.ScheduleOn(1, 10, [&] {
    engine.ScheduleOn(kSharedShard, 2, [] {});  // 2 < lookahead 5
  });
  EXPECT_DEATH(engine.Run(100), "lookahead contract");
}

TEST(ShardedEngineDeath, CrossShardCancelPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedEngineOptions seo;
  seo.num_shards = 2;
  ShardedEngine engine(seo);
  EventId id = engine.ScheduleOn(kSharedShard, 50, [] {});
  engine.ScheduleOn(1, 10, [&] { engine.Cancel(kSharedShard, id); });
  EXPECT_DEATH(engine.Run(100), "cross-shard Cancel");
}

TEST(ShardedEngine, StopHaltsAtWindowBarrier) {
  ShardedEngineOptions seo;
  seo.num_shards = 2;
  ShardedEngine engine(seo);
  int later = 0;
  engine.ScheduleOn(1, 5, [&] { engine.Stop(); });
  engine.ScheduleOn(1, 50, [&] { ++later; });
  engine.Run(100);
  EXPECT_EQ(later, 0);
  EXPECT_FALSE(engine.Empty());
  EXPECT_LT(engine.Now(), 50u);  // no fast-forward past the halt
  engine.Run(100);  // resumable; drains the rest
  EXPECT_EQ(later, 1);
  EXPECT_TRUE(engine.Empty());
}

TEST(ShardedEngine, DispatchLimitHaltsAtTheSameWindowEveryRun) {
  // The livelock guard cuts the run at a window barrier, so a limited run
  // is as deterministic as an unlimited one.
  auto run_limited = [] {
    ShardedEngineOptions seo;
    seo.num_shards = 5;
    seo.lookahead_us = 2;
    ShardedEngine engine(seo);
    ClusterModelOptions cmo;
    cmo.clusters = 4;
    cmo.horizon_us = 4000;
    ClusterModel model(engine, cmo);
    model.Install();
    engine.set_dispatch_limit(500);
    engine.Run(4000);
    EXPECT_TRUE(engine.dispatch_limit_hit());
    EXPECT_LT(engine.Now(), 4000u);
    EXPECT_GE(engine.dispatched(), 500u);
    return std::make_pair(engine.dispatched(), model.Fingerprint());
  };
  EXPECT_EQ(run_limited(), run_limited());
}

TEST(ShardedEngine, DispatchedEqualsShardSum) {
  // dispatched() accumulates only the shards that ran each window; it must
  // still equal the per-shard totals.
  for (uint64_t limit : {0u, 700u}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    ShardedEngineOptions seo;
    seo.num_shards = 9;
    seo.lookahead_us = 2;
    ShardedEngine engine(seo);
    ClusterModelOptions cmo;
    cmo.clusters = 8;
    cmo.seed = 3;
    cmo.horizon_us = 6000;
    ClusterModel model(engine, cmo);
    model.Install();
    engine.set_dispatch_limit(limit);
    uint64_t returned = engine.Run(8000);
    EXPECT_EQ(limit != 0, engine.dispatch_limit_hit());

    uint64_t shard_sum = 0;
    for (ShardId s = 0; s < engine.num_shards(); ++s) {
      shard_sum += engine.shard_core(s).dispatched();
    }
    const ShardedEngine::WindowStats& st = engine.window_stats();
    EXPECT_EQ(engine.dispatched(), shard_sum);
    EXPECT_EQ(returned, shard_sum);
    EXPECT_EQ(st.events, engine.dispatched());
    EXPECT_GT(st.windows, 0u);
    EXPECT_GE(st.shard_runs, st.windows);
    EXPECT_LE(st.shard_runs, st.windows * engine.num_shards());
    EXPECT_GT(st.cross_posts, 0u);
  }
}

TEST(ShardedEngine, RepeatRunsAreDeterministic) {
  auto digest_once = [] {
    ShardedEngineOptions seo;
    seo.num_shards = 9;
    ShardedEngine engine(seo);
    TraceOptions to;
    to.enabled = true;
    Tracer tracer(to);
    engine.set_tracer(&tracer);
    ClusterModelOptions cmo;
    cmo.clusters = 8;
    cmo.horizon_us = 10'000;
    ClusterModel model(engine, cmo);
    model.Install();
    engine.Run();
    return tracer.digest();
  };
  EXPECT_EQ(digest_once(), digest_once());
}

// --- ShardPlan: the machine-topology seam ------------------------------

TEST(ShardPlan, DerivesShardsAndLookaheadFromConfig) {
  SystemConfig config;
  config.num_clusters = 6;
  DiskConfig disk;
  ShardPlan plan = MakeShardPlan(config, disk);
  EXPECT_EQ(plan.num_shards, 7u);
  // min(bus arbitration 2us, disk seek 200us)
  EXPECT_EQ(plan.lookahead_us, std::min(config.bus.arbitration_us, disk.seek_us));
  EXPECT_EQ(plan.shared_shard(), kSharedShard);
  EXPECT_EQ(plan.shard_of_cluster(0), 1u);
  EXPECT_EQ(plan.shard_of_cluster(5), 6u);
  ShardedEngineOptions seo = plan.EngineOptions();
  EXPECT_EQ(seo.num_shards, 7u);
  EXPECT_EQ(seo.lookahead_us, plan.lookahead_us);
  EXPECT_NE(plan.Describe().find("shards=7"), std::string::npos);
}

TEST(ShardPlanDeath, ZeroLatencyTopologyPanics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SystemConfig config;
  config.bus.arbitration_us = 0;
  DiskConfig disk;
  EXPECT_DEATH(MakeShardPlan(config, disk), "lookahead");
}

}  // namespace
}  // namespace auragen
