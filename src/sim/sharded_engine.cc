#include "src/sim/sharded_engine.h"

#include <algorithm>

namespace auragen {

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : lookahead_(options.lookahead_us) {
  AURAGEN_CHECK(options.num_shards >= 1) << "ShardedEngine needs at least one shard";
  AURAGEN_CHECK(lookahead_ >= 1) << "lookahead must be a positive sim-time interval";
  shards_.reserve(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  heap_tops_.resize(options.num_shards, kSimForever);
}

SimTime ShardedEngine::ShardNow(ShardId shard) const {
  AURAGEN_CHECK(shard < shards_.size());
  return shards_[shard]->core.Now();
}

EventId ShardedEngine::ScheduleOn(ShardId shard, SimTime delay, Task&& fn) {
  AURAGEN_CHECK(shard < shards_.size());
  SimTime base;
  if (current_shard_ != kNoShard) {
    base = shards_[current_shard_]->core.Now();
  } else {
    base = std::max(now_, shards_[shard]->core.Now());
  }
  return ScheduleAtOn(shard, base + delay, std::move(fn));
}

EventId ShardedEngine::ScheduleAtOn(ShardId shard, SimTime when, Task&& fn) {
  AURAGEN_CHECK(shard < shards_.size());
  if (current_shard_ != kNoShard && current_shard_ != shard) {
    // Cross-shard schedule from inside a window: the conservative contract.
    // The target shard may already be executing past `when` in this very
    // window, so the post must land at or after the window's end — which any
    // model latency >= lookahead guarantees from any point in the window.
    AURAGEN_CHECK(when >= active_window_end_)
        << "cross-shard schedule violates the lookahead contract: shard " << current_shard_
        << " -> " << shard << " at t=" << when << " inside window ending "
        << active_window_end_ << " (model latency must be >= lookahead)";
    shards_[current_shard_]->outbox.emplace_back(shard, when, std::move(fn));
    // The destination id is assigned at the barrier drain; handles are only
    // valid for same-shard cancellation anyway, so none is returned.
    return kNoEvent;
  }
  if (current_shard_ == kNoShard) {
    AURAGEN_CHECK(when >= now_) << "scheduling into the past:" << when << "<" << now_;
  }
  return shards_[shard]->core.ScheduleAt(when, std::move(fn));
}

void ShardedEngine::Cancel(ShardId shard, EventId id) {
  AURAGEN_CHECK(shard < shards_.size());
  if (current_shard_ != kNoShard) {
    AURAGEN_CHECK(shard == current_shard_)
        << "cross-shard Cancel breaks the window contract; shard " << current_shard_
        << " tried to cancel on shard " << shard;
  }
  shards_[shard]->core.Cancel(id);
}

void ShardedEngine::ScheduleControlAt(SimTime when, Task fn) {
  AURAGEN_CHECK(CurrentShard() == kNoShard)
      << "control events may only be scheduled from outside shard callbacks";
  AURAGEN_CHECK(when >= now_) << "control scheduled into the past: " << when << " < " << now_;
  controls_.emplace(when, std::move(fn));
}

void ShardedEngine::SyncShardClocks() {
  AURAGEN_CHECK(current_shard_ == kNoShard) << "SyncShardClocks from inside a callback";
  for (auto& sh : shards_) {
    Engine& core = sh->core;
    // Lenient on purpose: after a dispatch-limit halt a core may still hold
    // events behind the global clock; leave such a core where it stopped.
    if (core.Now() < now_ && core.NextEventTime() >= now_) {
      core.AdvanceTo(now_);
    }
  }
}

void ShardedEngine::RunControlsAt(SimTime at) {
  for (auto& sh : shards_) {
    sh->core.AdvanceTo(at);
  }
  now_ = std::max(now_, at);
  // Fire in insertion order. A control may schedule further controls at the
  // same instant; they are appended to the equal range and fire here too.
  while (!controls_.empty() && controls_.begin()->first <= at) {
    Task fn = std::move(controls_.begin()->second);
    controls_.erase(controls_.begin());
    fn();
  }
}

void ShardedEngine::Trace(TraceEventKind kind, ClusterId cluster, uint64_t gpid,
                          uint64_t channel, uint64_t a, uint64_t b) {
  if (tracer_ == nullptr || !tracer_->WantsKind(kind)) {
    return;
  }
  if (current_shard_ != kNoShard) {
    Shard& sh = *shards_[current_shard_];
    sh.staged.push_back(Staged{sh.core.Now(), kind, cluster, gpid, channel, a, b});
  } else {
    tracer_->RecordAt(now_, kind, cluster, gpid, channel, a, b);
  }
}

void ShardedEngine::RunShardWindow(ShardId shard, SimTime window_end) {
  Shard& sh = *shards_[shard];
  Engine& core = sh.core;
  if (dispatch_limit_ != 0) {
    core.set_dispatch_limit(core.dispatched() + window_budget_);
  } else {
    core.set_dispatch_limit(0);
  }
  current_shard_ = shard;
  // Dispatch everything strictly before the window end. The pop path
  // discards cancelled leftovers as they surface, so this also keeps the
  // heap tidy.
  if (stage_dispatch_trace_) {
    sh.window_events = core.RunBefore(window_end, [&sh, &core] {
      sh.staged.push_back(Staged{core.Now(), TraceEventKind::kEngineDispatch, kNoCluster, 0,
                                 0, core.last_dispatched(), 0});
    });
  } else {
    sh.window_events = core.RunBefore(window_end);
  }
  current_shard_ = kNoShard;
}

void ShardedEngine::BarrierDrain() {
  // Only the shards that ran can have dispatched, staged or posted anything
  // this window; ran_ lists them in ascending order, which is the order the
  // merge and the drain below need.
  ++stats_.windows;
  stats_.shard_runs += ran_.size();
  bool any_staged = false;
  for (ShardId s : ran_) {
    stats_.events += shards_[s]->window_events;
    any_staged = any_staged || !shards_[s]->staged.empty();
  }

  // 1. Deterministic trace merge: (ts, shard, intra-shard order). Events
  // staged by one shard are ts-nondecreasing already, so the comparator's
  // (shard, index) tie-break fully reproduces the sequential interleaving.
  // Untraced runs and quiet windows stage nothing and skip the sort.
  if (any_staged) {
    merge_scratch_.clear();
    for (ShardId s : ran_) {
      const std::vector<Staged>& staged = shards_[s]->staged;
      for (uint32_t i = 0; i < staged.size(); ++i) {
        merge_scratch_.push_back(MergeRef{staged[i].ts, s, i});
      }
    }
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const MergeRef& a, const MergeRef& b) {
                if (a.ts != b.ts) return a.ts < b.ts;
                if (a.shard != b.shard) return a.shard < b.shard;
                return a.index < b.index;
              });
    for (const MergeRef& ref : merge_scratch_) {
      const Staged& e = shards_[ref.shard]->staged[ref.index];
      tracer_->RecordAt(e.ts, e.kind, e.cluster, e.gpid, e.channel, e.a, e.b);
    }
    for (ShardId s : ran_) {
      shards_[s]->staged.clear();
    }
  }

  // 2. Cross-shard posts, in (source shard, post order) order: destination
  // event ids and FIFO tie-breaks are thereby a pure function of the
  // per-shard schedules.
  for (ShardId s : ran_) {
    std::vector<CrossPost>& outbox = shards_[s]->outbox;
    stats_.cross_posts += outbox.size();
    for (CrossPost& post : outbox) {
      shards_[post.dst]->core.ScheduleAt(post.when, std::move(post.fn));
    }
    outbox.clear();
  }
  ran_.clear();
}

uint64_t ShardedEngine::Run(SimTime until) {
  return Run(until, std::function<bool()>());
}

uint64_t ShardedEngine::Run(SimTime until, const std::function<bool()>& stop_pred) {
  AURAGEN_CHECK(current_shard_ == kNoShard) << "ShardedEngine::Run is not reentrant";
  stop_ = false;
  limit_hit_ = false;
  bool pred_halt = false;
  const uint64_t start_dispatched = stats_.events;
  stage_dispatch_trace_ =
      tracer_ != nullptr && tracer_->WantsKind(TraceEventKind::kEngineDispatch);

  for (;;) {
    if (stop_) {
      break;
    }
    if (dispatch_limit_ != 0 && stats_.events >= dispatch_limit_) {
      limit_hit_ = true;
      break;
    }
    // Next window starts at the earliest pending event anywhere. The same
    // scan records every heap top, which decides below which shards run.
    SimTime window_start = kSimForever;
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      const Engine& core = shards_[s]->core;
      heap_tops_[s] = core.HeapTopTime();
      window_start = std::min(window_start, core.NextEventTime());
    }
    // A control due at or before the next shard event fires first, between
    // windows, with every shard clock aligned to the control time.
    const SimTime ctrl =
        controls_.empty() ? kSimForever : controls_.begin()->first;
    if (ctrl != kSimForever && ctrl <= window_start && ctrl <= until) {
      RunControlsAt(ctrl);
      if (stop_pred && stop_pred()) {
        pred_halt = true;
        break;
      }
      continue;
    }
    if (window_start == kSimForever || window_start > until) {
      break;  // drained (up to the horizon)
    }
    SimTime window_end = window_start + lookahead_;
    if (until != kSimForever && window_end > until + 1) {
      window_end = until + 1;  // dispatch through `until` inclusive, no further
    }
    if (window_end > ctrl) {
      window_end = ctrl;  // never dispatch past a pending control
    }
    window_budget_ =
        dispatch_limit_ == 0 ? 0 : dispatch_limit_ - stats_.events;
    active_window_end_ = window_end;
    // A shard whose heap top lies at or past the window end would pop
    // nothing; it neither runs nor reaches the barrier.
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      if (heap_tops_[s] < window_end) {
        RunShardWindow(s, window_end);
        ran_.push_back(s);
      }
    }
    BarrierDrain();
    now_ = std::max(now_, window_end - 1);
    if (stop_pred && stop_pred()) {
      pred_halt = true;
      break;
    }
  }

  // Advance to the horizon only when the run earned it (mirrors
  // Engine::Run's dispatch-limit/Stop semantics).
  if (until != kSimForever && now_ < until && !limit_hit_ && !pred_halt &&
      !stop_) {
    now_ = until;
  }
  return stats_.events - start_dispatched;
}

bool ShardedEngine::Empty() const {
  for (const auto& sh : shards_) {
    if (!sh->core.Empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace auragen
