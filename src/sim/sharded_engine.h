// ShardedEngine: conservative parallel discrete-event simulation.
//
// The single-heap Engine serializes every event in the machine, so wall
// clock is the hard ceiling on big topologies and seed campaigns. This
// engine shards the event space — one heap per cluster, plus shard 0 for
// shared components (bus arbitration, disks, process server) — and runs
// shards on a worker pool under conservative time-window synchronization
// (Chandy/Misra/Bryant style, per Treaster's survey of fault-tolerance
// techniques for large parallel systems).
//
// The synchronization unit comes straight from the paper's §5.1 bus
// atomicity model: a cluster never observes a remote effect sooner than the
// minimum intercluster bus/disk latency. That minimum is the *lookahead* L.
// Execution proceeds in windows [T, T+L): every shard dispatches its events
// inside the window in (time, sequence) order, in parallel with the other
// shards; at the window barrier, cross-shard schedules (bus deliveries,
// crash notices) are posted into the target shards. The lookahead contract
// makes the windows race-free by construction:
//
//   * a callback running on shard s may touch only shard-s state;
//   * a callback may schedule freely onto its own shard (any time >= now);
//   * a cross-shard schedule must land at or after the current window's end
//     (checked) — i.e. model latencies between shards must be >= L.
//
// Determinism is the non-negotiable invariant. Three mechanisms make a
// parallel run bit-identical to the sequential (threads=1) run:
//
//   1. per-shard execution is single-threaded and heap-ordered, so each
//      shard's event stream is a pure function of its inputs;
//   2. cross-shard posts are buffered per source shard and drained at the
//      barrier in (source shard, post order) order, so destination event
//      ids and FIFO tie-breaks never depend on thread timing;
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
// barriers: the window is the unit of deterministic progress, so a limited
// or stopped run halts at the same point for every thread count.

#ifndef AURAGEN_SRC_SIM_SHARDED_ENGINE_H_
#define AURAGEN_SRC_SIM_SHARDED_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
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
  // Worker threads driving windows. 1 = sequential reference execution (the
  // same per-shard window and barrier code, no threads spawned); digests
  // are identical for every value. Clamped to num_shards.
  uint32_t threads = 1;
  // Conservative lookahead: the minimum cross-shard model latency, in
  // microseconds. Windows are [T, T+lookahead).
  SimTime lookahead_us = 2;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint32_t threads() const { return threads_; }
  SimTime lookahead() const { return lookahead_; }

  // Global simulated-through time: the last completed window (or the Run()
  // horizon when the run earned it). Valid between Run() calls.
  SimTime Now() const { return now_; }
  // A shard's local clock: the time of its last dispatched event.
  SimTime ShardNow(ShardId shard) const;
  // The shard whose callback is executing on this thread, or kNoShard.
  ShardId CurrentShard() const;

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
  EventId ScheduleOn(ShardId shard, SimTime delay, Task fn);
  EventId ScheduleAtOn(ShardId shard, SimTime when, Task fn);

  // Cancels a pending event on `shard`. Inside a callback only the current
  // shard's events may be cancelled (a cross-shard cancel would race).
  // Cancelling an already-fired id is a no-op (see Engine::Cancel).
  void Cancel(ShardId shard, EventId id);

  // Runs windows until every shard is out of events at or before `until`.
  // Returns the number of events dispatched. The global clock advances to
  // `until` only when the run simulated through it (not on Stop() or a
  // dispatch-limit halt).
  uint64_t Run(SimTime until = kSimForever);

  // Run with a stop predicate, evaluated on the driving thread at every
  // window barrier and after every control batch — the deterministic units
  // of progress, so the halt point is identical for every thread count. A
  // predicate halt leaves the clock at the last completed window (no horizon
  // fast-forward). Returns the number of events dispatched.
  uint64_t Run(SimTime until, const std::function<bool()>& stop_pred);

  // Control events: machine-level actions (fault injection, console input,
  // restore timers) that must observe and mutate state across many shards.
  // They run on the driving thread *between* windows, with every shard clock
  // aligned to the control time (AdvanceTo), so they are data-race-free and
  // fire at the same deterministic point for every thread count. A control
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
  void Stop() { stop_.store(true, std::memory_order_relaxed); }

  bool Empty() const;
  // Events dispatched by all shards, accumulated at each barrier.
  uint64_t dispatched() const { return stats_.events; }

  // Window statistics, kept on the driving thread at each barrier and never
  // read by the model. They depend only on the simulated schedule, so they
  // are identical for every thread count.
  struct WindowStats {
    uint64_t windows = 0;      // windows executed
    uint64_t shard_runs = 0;   // (window, shard) pairs where the shard ran
    uint64_t events = 0;       // events dispatched inside windows
    uint64_t cross_posts = 0;  // cross-shard schedules drained at barriers
  };
  const WindowStats& window_stats() const { return stats_; }

  // Livelock guard, enforced deterministically at window granularity: each
  // window every shard receives the remaining global budget, and the run
  // halts at the first barrier where the total reaches the limit. The halt
  // point is identical for every thread count. 0 disables.
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
    // Parallel mode: set by the thread that ran the shard this window; read
    // and cleared by the driving thread after the park handshake.
    bool ran = false;
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
  // Parallel mode: claims shards by ticket and runs the due ones.
  void RunShardTickets(SimTime window_end);
  void ExecuteWindowParallel(SimTime window_end);
  // Folds the shards in ran_ into the window: statistics, trace merge and
  // cross-shard posts. Empties ran_.
  void BarrierDrain();
  void WorkerLoop();
  // Fires every control scheduled at `at` (in insertion order), with all
  // shard clocks advanced to `at` first.
  void RunControlsAt(SimTime at);

  const SimTime lookahead_;
  uint32_t threads_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;

  SimTime now_ = 0;
  uint64_t dispatch_limit_ = 0;
  bool limit_hit_ = false;
  SimTime active_window_end_ = 0;    // immutable while a window executes
  uint64_t window_budget_ = 0;       // per-shard dispatch budget this window
  bool stage_dispatch_trace_ = false;
  std::atomic<bool> stop_{false};
  Tracer* tracer_ = nullptr;
  std::vector<MergeRef> merge_scratch_;
  // Each shard's heap top at the window-start scan; no heap changes
  // between that scan and the window's run loop. Read by workers after the
  // window is published.
  std::vector<SimTime> heap_tops_;
  std::vector<ShardId> ran_;  // shards that ran this window, ascending
  WindowStats stats_;
  // Pending control events, fired between windows on the driving thread.
  // multimap preserves insertion order among equal times.
  std::multimap<SimTime, Task> controls_;

  // Worker pool (only when threads_ > 1). Handshake: main publishes a
  // window under mu_ (bumping window_seq_), workers claim shards via the
  // next_shard_ ticket and park when the ticket runs out; main waits until
  // every worker is parked before touching shard state at the barrier.
  std::mutex mu_;
  std::condition_variable cv_workers_;
  std::condition_variable cv_main_;
  std::vector<std::thread> workers_;
  uint64_t window_seq_ = 0;
  SimTime published_end_ = 0;
  uint32_t workers_parked_ = 0;
  bool shutdown_ = false;
  std::atomic<uint32_t> next_shard_{0};
};

}  // namespace auragen

#endif  // AURAGEN_SRC_SIM_SHARDED_ENGINE_H_
