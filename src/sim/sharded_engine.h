// ShardedEngine: the machine's windowed discrete-event engine.
//
// The event space is sharded — one heap per cluster, plus shard 0 for
// shared components (bus arbitration, disks, process server) — and the
// shards advance together under conservative time-window synchronization
// (Chandy/Misra/Bryant style, per Treaster's survey of fault-tolerance
// techniques for large parallel systems). Everything runs on the calling
// thread: the windows and barriers fix the model's event order, and with
// it every trace digest. Windows carry about 3 events, too few to share
// between threads (DESIGN.md §16.4).
//
// The synchronization unit comes straight from the paper's §5.1 bus
// atomicity model: a cluster never observes a remote effect sooner than the
// minimum intercluster bus/disk latency. That minimum is the *lookahead* L.
// Execution proceeds in windows [T, T+L): every shard dispatches its events
// inside the window in (time, sequence) order, one shard after the other in
// ascending shard order; at the window barrier, cross-shard schedules (bus
// deliveries, crash notices) are posted into the target shards. The
// lookahead contract keeps each shard's window a function of its own state:
//
//   * a callback running on shard s may touch only shard-s state;
//   * a callback may schedule freely onto its own shard (any time >= now);
//   * a cross-shard schedule must land at or after the current window's end
//     (checked) — i.e. model latencies between shards must be >= L.
//
// Determinism is the non-negotiable invariant. Three mechanisms fix the
// event and trace order:
//
//   1. per-shard execution is heap-ordered, so each shard's event stream is
//      a pure function of its inputs;
//   2. cross-shard posts are buffered per source shard and drained at the
//      barrier in (source shard, post order) order, so destination event
//      ids and FIFO tie-breaks depend only on the per-shard schedules;
//   3. trace records are staged per shard and merged at each barrier in
//      (timestamp, shard, shard order) order before folding into the master
//      Tracer digest — the merged stream, and hence the FNV digest, is a
//      pure function of the per-shard streams.
//
// A window runs only the shards with an event due inside it, each in one
// Engine::RunBefore call, and the barrier touches only those shards (in
// ascending shard order): an idle shard dispatches, stages and posts
// nothing, so skipping it changes no order above.
//
// Dispatch-limit (livelock guard) and Stop() take effect at window
// barriers: the window is the unit of deterministic progress.

#ifndef AURAGEN_SRC_SIM_SHARDED_ENGINE_H_
#define AURAGEN_SRC_SIM_SHARDED_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/base/task.h"
#include "src/base/types.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace auragen {

using ShardId = uint32_t;
inline constexpr ShardId kNoShard = 0xffffffffu;
// Conventional home of shared components (bus, disks, machine-level timers).
inline constexpr ShardId kSharedShard = 0;

struct ShardedEngineOptions {
  // Shard 0 is shared; a machine with C clusters uses 1 + C shards.
  uint32_t num_shards = 1;
  // Conservative lookahead: the minimum cross-shard model latency, in
  // microseconds. Windows are [T, T+lookahead).
  SimTime lookahead_us = 2;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  SimTime lookahead() const { return lookahead_; }

  // Global simulated-through time: the last completed window (or the Run()
  // horizon when the run earned it). Valid between Run() calls.
  SimTime Now() const { return now_; }
  // A shard's local clock: the time of its last dispatched event.
  SimTime ShardNow(ShardId shard) const;
  // The shard whose callback is executing, or kNoShard.
  ShardId CurrentShard() const { return current_shard_; }

  // Direct access to a shard's Engine core. Components homed on a shard
  // (kernels, disks) hold this reference and schedule on it natively; the
  // lookahead contract applies only to cross-shard traffic, which must go
  // through ScheduleOn/ScheduleAtOn.
  Engine& shard_core(ShardId shard) {
    AURAGEN_CHECK(shard < shards_.size());
    return shards_[shard]->core;
  }

  // Schedules onto `shard`. From inside a callback: same-shard schedules are
  // unrestricted; cross-shard schedules must land at or after the current
  // window's end (model latency >= lookahead guarantees this). From outside
  // Run(), any shard and any time >= Now() is legal.
  // The closure is taken by rvalue reference and moved only into its final
  // home (the shard's slot, or this window's outbox).
  EventId ScheduleOn(ShardId shard, SimTime delay, Task&& fn);
  EventId ScheduleAtOn(ShardId shard, SimTime when, Task&& fn);

  // Cancels a pending event on `shard`. Inside a callback only the current
  // shard's events may be cancelled: the target shard may already have run
  // past the event in this window.
  // Cancelling an already-fired id is a no-op (see Engine::Cancel).
  void Cancel(ShardId shard, EventId id);

  // Runs windows until every shard is out of events at or before `until`.
  // Returns the number of events dispatched. The global clock advances to
  // `until` only when the run simulated through it (not on Stop() or a
  // dispatch-limit halt).
  uint64_t Run(SimTime until = kSimForever);

  // Run with a stop predicate, evaluated at every window barrier and after
  // every control batch — the deterministic units of progress. A
  // predicate halt leaves the clock at the last completed window (no horizon
  // fast-forward). Returns the number of events dispatched.
  uint64_t Run(SimTime until, const std::function<bool()>& stop_pred);

  // Control events: machine-level actions (fault injection, console input,
  // restore timers) that must observe and mutate state across many shards.
  // They run *between* windows, with every shard clock aligned to the
  // control time (AdvanceTo), so they see no shard mid-window. A control
  // fires only once every shard's next pending event is at or after its
  // time. Only legal from outside a shard callback (or from another control).
  void ScheduleControlAt(SimTime when, Task fn);
  void ScheduleControl(SimTime delay, Task fn) { ScheduleControlAt(now_ + delay, std::move(fn)); }

  // Aligns every shard core's clock with the global simulated-through time.
  // Call after Run() before issuing direct shard-core schedules from the
  // outside (e.g. spawning onto a machine that already ran): a core that
  // idled keeps the clock of its last event otherwise, and a delay-relative
  // schedule on it would land in the global past.
  void SyncShardClocks();

  // Requests a halt at the next window barrier (the deterministic unit of
  // progress). Callable from inside callbacks.
  void Stop() { stop_ = true; }

  bool Empty() const;
  // Events dispatched by all shards, accumulated at each barrier.
  uint64_t dispatched() const { return stats_.events; }

  // Window statistics, kept at each barrier and never read by the model.
  // They depend only on the simulated schedule.
  struct WindowStats {
    uint64_t windows = 0;      // windows executed
    uint64_t shard_runs = 0;   // (window, shard) pairs where the shard ran
    uint64_t events = 0;       // events dispatched inside windows
    uint64_t cross_posts = 0;  // cross-shard schedules drained at barriers
  };
  const WindowStats& window_stats() const { return stats_; }

  // Livelock guard, enforced deterministically at window granularity: each
  // window every shard receives the remaining global budget, and the run
  // halts at the first barrier where the total reaches the limit. 0
  // disables.
  void set_dispatch_limit(uint64_t limit) { dispatch_limit_ = limit; }
  bool dispatch_limit_hit() const { return limit_hit_; }

  // Master tracer for the deterministic multi-stream merge. Per-shard
  // records are staged locally and folded into this tracer at each barrier
  // in (ts, shard, shard order) order. kEngineDispatch records are staged
  // per dispatched event when the tracer's mask wants them.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Records a trace event from inside a callback: staged on the current
  // shard at its local time, merged at the barrier. Outside a callback,
  // falls through to the master tracer at global time.
  void Trace(TraceEventKind kind, ClusterId cluster, uint64_t gpid, uint64_t channel,
             uint64_t a, uint64_t b);

 private:
  // One staged trace record; ts is the recording shard's local clock.
  struct Staged {
    SimTime ts;
    TraceEventKind kind;
    ClusterId cluster;
    uint64_t gpid;
    uint64_t channel;
    uint64_t a;
    uint64_t b;
  };
  struct CrossPost {
    ShardId dst;
    SimTime when;
    Task fn;
  };
  struct Shard {
    Shard() : core(Engine::kNoLogClock) {}
    Engine core;
    std::vector<Staged> staged;    // this window's trace records, ts-ordered
    std::vector<CrossPost> outbox; // this window's cross-shard schedules
    uint64_t window_events = 0;    // dispatched in the last window it ran
  };
  // Merge key for the barrier trace merge (ts, shard, intra-shard order).
  struct MergeRef {
    SimTime ts;
    uint32_t shard;
    uint32_t index;
  };

  // Dispatches the shard's events before `window_end`; the caller has
  // checked that its heap top lies inside the window (heap_tops_).
  void RunShardWindow(ShardId shard, SimTime window_end);
  // Folds the shards in ran_ into the window: statistics, trace merge and
  // cross-shard posts. Empties ran_.
  void BarrierDrain();
  // Fires every control scheduled at `at` (in insertion order), with all
  // shard clocks advanced to `at` first.
  void RunControlsAt(SimTime at);

  const SimTime lookahead_;
  std::vector<std::unique_ptr<Shard>> shards_;

  SimTime now_ = 0;
  uint64_t dispatch_limit_ = 0;
  bool limit_hit_ = false;
  SimTime active_window_end_ = 0;    // immutable while a window executes
  uint64_t window_budget_ = 0;       // per-shard dispatch budget this window
  bool stage_dispatch_trace_ = false;
  bool stop_ = false;
  // The shard whose callback is executing, kNoShard between windows.
  ShardId current_shard_ = kNoShard;
  Tracer* tracer_ = nullptr;
  std::vector<MergeRef> merge_scratch_;
  // Each shard's heap top at the window-start scan. Other shards' callbacks
  // post to outboxes, never to this heap, so the scan still holds when the
  // shard's turn in the window comes.
  std::vector<SimTime> heap_tops_;
  std::vector<ShardId> ran_;  // shards that ran this window, ascending
  WindowStats stats_;
  // Pending control events, fired between windows. multimap preserves
  // insertion order among equal times.
  std::multimap<SimTime, Task> controls_;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_SIM_SHARDED_ENGINE_H_
