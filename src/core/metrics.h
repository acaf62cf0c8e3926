// Counters the benchmarks read. One Metrics object per machine; kernels and
// servers increment it as they go. Everything here is measurement-only —
// no simulated component ever reads a metric back, so metrics can never
// perturb determinism.

#ifndef AURAGEN_SRC_CORE_METRICS_H_
#define AURAGEN_SRC_CORE_METRICS_H_

#include <cstdint>

#include "src/base/types.h"

namespace auragen {

struct Metrics {
  // Message system.
  uint64_t messages_sent = 0;          // logical sends (writes entering the system)
  uint64_t deliveries_primary = 0;     // enqueues at primary destinations
  uint64_t deliveries_backup = 0;      // enqueues at destination backups
  uint64_t deliveries_count_only = 0;  // sender's-backup count bumps
  uint64_t sends_suppressed = 0;       // §5.4 duplicate suppression hits
  uint64_t bytes_sent = 0;

  // Sync machinery (§7.8).
  uint64_t syncs = 0;
  uint64_t sync_pages_shipped = 0;
  uint64_t sync_bytes_shipped = 0;
  SimTime sync_primary_stall_us = 0;   // time the primary was held up (§8.3)
  // The stall split (the pipeline's cost model): record construction vs
  // synchronous page enqueueing; plus drain work done on the executive
  // while the primary kept running (incremental+async only).
  SimTime sync_build_stall_us = 0;     // record construction (sync_build_us)
  SimTime sync_enqueue_stall_us = 0;   // inline page enqueues (primary held)
  SimTime sync_drain_async_us = 0;     // executive drain steps (primary runs)
  SimTime sync_flush_overlap_us = 0;   // flush-begin to record-on-queue time
  uint64_t sync_flushes_async = 0;     // flushes drained asynchronously
  uint64_t syncs_deferred_drain = 0;   // triggers deferred: flush in flight
  uint64_t sync_adaptive_tighten = 0;  // adaptive trigger halved the limit
  uint64_t sync_adaptive_loosen = 0;   // adaptive trigger doubled the limit
  uint64_t forced_signal_syncs = 0;    // syncs forced by signal delivery (§8.3)
  uint64_t backup_msgs_trimmed = 0;    // saved messages discarded by sync

  // Backup lifecycle (§7.7, §8.2).
  uint64_t backups_created = 0;
  uint64_t birth_notices = 0;
  uint64_t processes_spawned = 0;
  uint64_t processes_exited = 0;
  uint64_t backup_create_bytes = 0;    // state shipped to create backups

  // Checkpoint baselines (src/baselines).
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  SimTime checkpoint_stall_us = 0;

  // Paging (§7.6).
  uint64_t page_writes = 0;            // page images landed on page-server disks
  uint64_t page_faults_served = 0;
  uint64_t page_fault_zero_fills = 0;  // page-ins answered "unknown": filled from
                                       // the image, or zeros past its end

  // Recovery (§7.10).
  uint64_t crashes_handled = 0;
  uint64_t takeovers = 0;
  uint64_t rollforward_msgs_replayed = 0;
  SimTime last_crash_detected_at = 0;
  SimTime last_recovery_first_dispatch_at = 0;  // first unaffected process back on CPU
  SimTime last_recovery_complete_at = 0;        // all takeovers runnable
  // Crash-notice receipt to takeovers-runnable, summed over (survivor,
  // crash) pairs — the rollforward-replay cost a survivor pays per crash.
  SimTime rollforward_replay_us = 0;

  // Delivery latency: bus accept at the sender to frame arrival at each
  // receiving executive processor (heartbeats excluded).
  SimTime delivery_latency_us_total = 0;
  uint64_t delivery_latency_samples = 0;

  // Processor accounting (E1/E9: §8.1 claims backup copies cost the
  // executive, never the work processors).
  SimTime work_busy_us = 0;
  SimTime exec_busy_us = 0;

  // Servers.
  uint64_t server_syncs = 0;
  uint64_t server_sync_bytes = 0;
  uint64_t fileserver_disk_bytes = 0;  // state made available via disk (§7.9)

  void Reset() { *this = Metrics{}; }

  // Folds another cluster's metrics into this one. Counters and durations
  // add; the machine-wide last_* stamps take the latest across clusters.
  // The machine keeps one Metrics per cluster for attribution: each
  // kernel counts into its own (Machine::cluster_metrics, and a kernel
  // reads its own cluster's last_crash_detected_at), and the machine-wide
  // view is aggregated on read.
  void Accumulate(const Metrics& o) {
    messages_sent += o.messages_sent;
    deliveries_primary += o.deliveries_primary;
    deliveries_backup += o.deliveries_backup;
    deliveries_count_only += o.deliveries_count_only;
    sends_suppressed += o.sends_suppressed;
    bytes_sent += o.bytes_sent;
    syncs += o.syncs;
    sync_pages_shipped += o.sync_pages_shipped;
    sync_bytes_shipped += o.sync_bytes_shipped;
    sync_primary_stall_us += o.sync_primary_stall_us;
    sync_build_stall_us += o.sync_build_stall_us;
    sync_enqueue_stall_us += o.sync_enqueue_stall_us;
    sync_drain_async_us += o.sync_drain_async_us;
    sync_flush_overlap_us += o.sync_flush_overlap_us;
    sync_flushes_async += o.sync_flushes_async;
    syncs_deferred_drain += o.syncs_deferred_drain;
    sync_adaptive_tighten += o.sync_adaptive_tighten;
    sync_adaptive_loosen += o.sync_adaptive_loosen;
    forced_signal_syncs += o.forced_signal_syncs;
    backup_msgs_trimmed += o.backup_msgs_trimmed;
    backups_created += o.backups_created;
    birth_notices += o.birth_notices;
    processes_spawned += o.processes_spawned;
    processes_exited += o.processes_exited;
    backup_create_bytes += o.backup_create_bytes;
    checkpoints += o.checkpoints;
    checkpoint_bytes += o.checkpoint_bytes;
    checkpoint_stall_us += o.checkpoint_stall_us;
    page_writes += o.page_writes;
    page_faults_served += o.page_faults_served;
    page_fault_zero_fills += o.page_fault_zero_fills;
    crashes_handled += o.crashes_handled;
    takeovers += o.takeovers;
    rollforward_msgs_replayed += o.rollforward_msgs_replayed;
    if (o.last_crash_detected_at > last_crash_detected_at) {
      last_crash_detected_at = o.last_crash_detected_at;
    }
    if (o.last_recovery_first_dispatch_at > last_recovery_first_dispatch_at) {
      last_recovery_first_dispatch_at = o.last_recovery_first_dispatch_at;
    }
    if (o.last_recovery_complete_at > last_recovery_complete_at) {
      last_recovery_complete_at = o.last_recovery_complete_at;
    }
    rollforward_replay_us += o.rollforward_replay_us;
    delivery_latency_us_total += o.delivery_latency_us_total;
    delivery_latency_samples += o.delivery_latency_samples;
    work_busy_us += o.work_busy_us;
    exec_busy_us += o.exec_busy_us;
    server_syncs += o.server_syncs;
    server_sync_bytes += o.server_sync_bytes;
    fileserver_disk_bytes += o.fileserver_disk_bytes;
  }
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_METRICS_H_
