#include "src/machine/machine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/base/log.h"
#include "src/servers/protocol.h"

namespace auragen {

constexpr Gpid Machine::kFsPid;
constexpr Gpid Machine::kPsPid;
constexpr Gpid Machine::kTtyPid;
constexpr Gpid Machine::kPagePid;

namespace {

std::string PlacementError(const char* role, const std::string& what) {
  return std::string(role) + " server: " + what;
}

}  // namespace

std::string ServerPlacement::Validate(const SystemConfig& config) const {
  const uint32_t n = config.num_clusters;
  const bool ft = config.strategy == FtStrategy::kMessageSystem;
  if (n < 1) {
    return "num_clusters must be >= 1";
  }
  if (config.page_shards < 1 || config.page_shards > 32) {
    return "page_shards must be in [1, 32], got " + std::to_string(config.page_shards);
  }
  if (ft && n < 2) {
    return "message-system fault tolerance needs num_clusters >= 2 (backups must "
           "live on a different cluster)";
  }

  struct Role {
    const char* name;
    const ClusterPair* pair;
  };
  const Role roles[] = {{"file", &file}, {"process", &process}, {"tty", &tty}, {"page", &page}};
  for (const Role& r : roles) {
    if (r.pair->primary >= n) {
      return PlacementError(r.name, "primary cluster " + std::to_string(r.pair->primary) +
                                        " out of range (num_clusters=" + std::to_string(n) +
                                        ")");
    }
    if (!ft) {
      continue;  // backups are never spawned without the message system
    }
    if (r.pair->backup >= n) {
      return PlacementError(r.name, "backup cluster " + std::to_string(r.pair->backup) +
                                        " out of range (num_clusters=" + std::to_string(n) +
                                        ")");
    }
    if (r.pair->backup == r.pair->primary) {
      return PlacementError(r.name, "primary and backup must differ (both " +
                                        std::to_string(r.pair->primary) + ")");
    }
  }

  // Multi-segment fabric: a primary and its backup must share a segment.
  // Takeover and re-backup traffic may not depend on a switch surviving the
  // fault it is recovering from, and a dual-ported disk cannot span
  // segments at all.
  const Topology topo = config.resolved_topology();
  if (ft && topo.num_segments() > 1) {
    for (const Role& r : roles) {
      if (topo.segment_of(r.pair->primary) != topo.segment_of(r.pair->backup)) {
        return PlacementError(
            r.name, "primary (cluster " + std::to_string(r.pair->primary) +
                        ") and backup (cluster " + std::to_string(r.pair->backup) +
                        ") are in different fabric segments");
      }
    }
    const std::pair<const char*, const ClusterPair*> disks[] = {
        {"file disk", &file_disk}, {"page disk", &page_disk}};
    for (const auto& [name, ports] : disks) {
      if (ports->primary < n && ports->backup < n &&
          topo.segment_of(ports->primary) != topo.segment_of(ports->backup)) {
        return std::string(name) + ": ports {" + std::to_string(ports->primary) + "," +
               std::to_string(ports->backup) +
               "} span fabric segments (a dual-ported disk is cabled inside one segment)";
      }
    }
    // Page shards rotate within segment (s mod S); a base pair that is
    // congruent modulo some segment's size would fold a shard's primary and
    // backup onto one cluster there.
    for (SegmentId s = 0; s < topo.num_segments() && s < config.page_shards; ++s) {
      const uint32_t size = topo.segment_size(s);
      if (page.primary % size == page.backup % size ||
          page_disk.primary % size == page_disk.backup % size) {
        return PlacementError(
            "page", "shard rotation folds primary and backup onto one cluster in "
                    "segment " + std::to_string(s) + " (size " + std::to_string(size) +
                    "); pick a page/page_disk pair distinct modulo every segment size");
      }
    }
  }

  if (ft) {
    // §7.9: a peripheral server and its active backup each need a path to the
    // server's disk, i.e. both must sit on one of the disk's two ports.
    auto on_port = [](ClusterId c, const ClusterPair& disk) {
      return c == disk.primary || c == disk.backup;
    };
    auto check_ports = [&](const char* role, const ClusterPair& server,
                           const ClusterPair& disk) -> std::string {
      for (ClusterId c : {server.primary, server.backup}) {
        if (!on_port(c, disk)) {
          return PlacementError(role, "cluster " + std::to_string(c) +
                                          " is not a port of its disk {" +
                                          std::to_string(disk.primary) + "," +
                                          std::to_string(disk.backup) + "} (§7.9)");
        }
      }
      return {};
    };
    if (std::string err = check_ports("file", file, file_disk); !err.empty()) {
      return err;
    }
    if (std::string err = check_ports("page", page, page_disk); !err.empty()) {
      return err;
    }
    if (file_disk.primary >= n || file_disk.backup >= n || page_disk.primary >= n ||
        page_disk.backup >= n) {
      return "disk port out of range (num_clusters=" + std::to_string(n) + ")";
    }
  }
  return {};
}

std::string MachineOptions::Validate() const {
  if (engine_threads != 1) {
    return "engine_threads must be 1, got " + std::to_string(engine_threads) +
           " (a machine runs on one thread; the field only awaits removal)";
  }
  if (std::string err = config.sync_policy.Validate(); !err.empty()) {
    return "sync_policy: " + err;
  }
  if (!config.topology.empty()) {
    if (std::string err = config.topology.Validate(); !err.empty()) {
      return "topology: " + err;
    }
    if (config.topology.num_clusters() != config.num_clusters) {
      return "topology names " + std::to_string(config.topology.num_clusters()) +
             " clusters but num_clusters is " + std::to_string(config.num_clusters) +
             " (use MachineOptions::WithTopology, which keeps them in sync)";
    }
  }
  return placement.Validate(config);
}

// ------------------------------------------------------------- ClusterEnv

ClusterEnv::ClusterEnv(Machine& machine, ClusterId cluster)
    : machine_(machine), cluster_(cluster) {}

Engine& ClusterEnv::engine() {
  return machine_.sharded_->shard_core(machine_.plan_.shard_of_cluster(cluster_));
}

Fabric& ClusterEnv::bus() { return *machine_.bus_; }

const SystemConfig& ClusterEnv::config() const { return machine_.options_.config; }

void ClusterEnv::DiskRead(Gpid server, BlockNum block,
                          std::function<void(Result<Bytes>)> done) {
  machine_.DiskReadFrom(cluster_, server, block, std::move(done));
}

void ClusterEnv::DiskWrite(Gpid server, BlockNum block, Bytes data,
                           std::function<void(Result<void>)> done) {
  if (server == Machine::kFsPid) {
    metrics_.fileserver_disk_bytes += data.size();
  }
  machine_.DiskWriteFrom(cluster_, server, block, std::move(data), std::move(done));
}

void ClusterEnv::DiskWriteMulti(Gpid server, DiskWriteBatch batch,
                                std::function<void(Result<void>)> done) {
  if (server == Machine::kFsPid) {
    for (const auto& [block, data] : batch) {
      metrics_.fileserver_disk_bytes += data.size();
    }
  } else if (machine_.IsPageShard(server)) {
    // A page server's group write: its images count once, when they land.
    // The completion runs on this cluster's shard, which owns metrics_.
    done = [this, images = batch.size(), done = std::move(done)](Result<void> r) {
      if (r.ok()) {
        metrics_.page_writes += images;
      }
      done(r);
    };
  }
  machine_.DiskWriteMultiFrom(cluster_, server, std::move(batch), std::move(done));
}

void ClusterEnv::TtyEmit(Gpid server, const Bytes& data) {
  machine_.TtyEmitFrom(cluster_, server, data);
}

ClusterId ClusterEnv::PlaceNewBackup(ClusterId avoid_a, ClusterId avoid_b) {
  return machine_.PlaceNewBackupFrom(cluster_, avoid_a, avoid_b);
}

std::unique_ptr<NativeProgram> ClusterEnv::MakeServerProgram(Gpid pid) {
  return machine_.MakeServerProgram(pid);
}

void ClusterEnv::OnServerTakeover(Gpid pid, ClusterId new_cluster) {
  machine_.OnServerTakeover(pid, new_cluster);
}

void ClusterEnv::OnProcessExit(Gpid pid, int32_t status) {
  machine_.OnProcessExit(pid, status);
}

void ClusterEnv::OnDebugPutc(Gpid pid, char c) { machine_.OnDebugPutc(pid, c); }

// ---------------------------------------------------------------- Machine

Machine::Machine(MachineOptions options)
    : options_(std::move(options)),
      topology_(options_.config.resolved_topology()),
      plan_(MakeShardPlan(options_.config, options_.disk)),
      rng_(options_.seed) {
  const SystemConfig& cfg = options_.config;
  // The Topology is the single source of truth for the cluster count; a
  // disagreeing num_clusters would size kernels and fabric differently.
  AURAGEN_CHECK(topology_.num_clusters() == cfg.num_clusters)
      << "topology names " << topology_.num_clusters() << " clusters but "
      << "SystemConfig::num_clusters is " << cfg.num_clusters
      << " (use MachineOptions::WithTopology, which keeps them in sync)";
  sharded_ = std::make_unique<ShardedEngine>(plan_.EngineOptions());
  if (options_.trace.enabled) {
    tracer_ = std::make_unique<Tracer>(options_.trace);
    tracer_->set_clock([this] { return sharded_->Now(); });
    // Every component records through Tracer::Record as before; the hook
    // reroutes records into the engine's per-shard staging so the digest is
    // folded in deterministic merge order at each window barrier.
    tracer_->set_record_hook([this](TraceEventKind kind, ClusterId cluster, uint64_t gpid,
                                    uint64_t channel, uint64_t a, uint64_t b) {
      sharded_->Trace(kind, cluster, gpid, channel, a, b);
    });
    sharded_->set_tracer(tracer_.get());
    options_.file_server.tracer = tracer_.get();
    options_.page_server.tracer = tracer_.get();
  }
  std::vector<uint32_t> segment_shards(topology_.num_segments());
  for (SegmentId s = 0; s < segment_shards.size(); ++s) {
    segment_shards[s] = plan_.shard_of_segment(s);
  }
  bus_ = std::make_unique<Fabric>(*sharded_, topology_, std::move(segment_shards));
  bus_->set_tracer(tracer_.get());
  const ServerPlacement& place = options_.placement;
  Engine& shared_core = sharded_->shard_core(kSharedShard);
  fs_disk_ = std::make_unique<MirroredDisk>(shared_core, options_.disk,
                                            place.file_disk.primary, place.file_disk.backup);
  const uint32_t shards = std::max<uint32_t>(1, cfg.page_shards);
  for (uint32_t s = 0; s < shards; ++s) {
    const ClusterPair ports = PageShardPlace(place.page_disk, s);
    page_disks_.push_back(
        std::make_unique<MirroredDisk>(shared_core, options_.disk, ports.primary, ports.backup));
  }
  for (ClusterId c = 0; c < cfg.num_clusters; ++c) {
    envs_.push_back(std::make_unique<ClusterEnv>(*this, c));
    kernels_.push_back(std::make_unique<Kernel>(*envs_[c], c));
    kernels_.back()->set_tracer(tracer_.get());
  }
}

Machine::~Machine() = default;

void Machine::Boot() {
  AURAGEN_CHECK(!booted_) << "Boot() called twice";
  if (std::string err = options_.Validate(); !err.empty()) {
    AURAGEN_PANIC("invalid MachineOptions: " + err);
  }
  booted_ = true;
  for (auto& kernel : kernels_) {
    kernel->Start();
  }
  SpawnServers();
  // Let server spawn traffic (channel fabrication, filesystem format)
  // settle before user work arrives.
  Run(20000);
}

ClusterPair Machine::PageShardPlace(const ClusterPair& base, uint32_t s) const {
  const uint32_t num_segments = topology_.num_segments();
  const SegmentId seg = s % num_segments;
  const ClusterId first = topology_.segment_base(seg);
  const uint32_t size = topology_.segment_size(seg);
  const uint32_t turn = s / num_segments;
  return ClusterPair{first + (base.primary + turn) % size,
                     first + (base.backup + turn) % size};
}

void Machine::SpawnServers() {
  const bool ft = options_.config.strategy == FtStrategy::kMessageSystem;
  const ServerPlacement& place = options_.placement;

  fs_addr_ = ServerAddr{kFsPid, place.file.primary, ft ? place.file.backup : kNoCluster};
  ps_addr_ = ServerAddr{kPsPid, place.process.primary, ft ? place.process.backup : kNoCluster};
  tty_addr_ = ServerAddr{kTtyPid, place.tty.primary, ft ? place.tty.backup : kNoCluster};
  for (uint32_t s = 0; s < page_disks_.size(); ++s) {
    // Shard placement rotates with the shard index (and so do the disks,
    // built the same way in the constructor), spreading paging load across
    // segments and clusters while keeping §7.9 satisfied per shard.
    const ClusterPair pair = PageShardPlace(place.page, s);
    page_addrs_.push_back(
        ServerAddr{PageShardPid(s), pair.primary, ft ? pair.backup : kNoCluster});
  }

  server_disks_[kFsPid.value] = fs_disk_.get();
  server_locations_[kFsPid.value] = place.file.primary;
  if (tracer_ != nullptr) {
    fs_disk_->set_tracer(tracer_.get(), kFsPid.value);
    for (uint32_t s = 0; s < page_disks_.size(); ++s) {
      page_disks_[s]->set_tracer(tracer_.get(), PageShardPid(s).value);
    }
  }
  server_locations_[kPsPid.value] = place.process.primary;
  server_locations_[kTtyPid.value] = place.tty.primary;
  for (uint32_t s = 0; s < page_disks_.size(); ++s) {
    server_disks_[PageShardPid(s).value] = page_disks_[s].get();
    server_locations_[PageShardPid(s).value] = page_addrs_[s].primary;
  }

  auto spawn_peripheral = [&](Gpid pid, ClusterId primary, ClusterId backup,
                              auto make_program) {
    SpawnSpec spec;
    spec.native = make_program();
    spec.peripheral = true;
    spec.mode = BackupMode::kHalfback;  // §7.3: peripheral servers
    spec.fixed_pid = pid;
    spec.backup_cluster = ft ? backup : kNoCluster;
    if (pid == kTtyPid) {
      // The tty server routes ^C through the process server (§7.5.2).
      spec.proc_server = ps_addr_;
    }
    kernels_[primary]->Spawn(std::move(spec));
    if (ft && backup != kNoCluster) {
      SpawnSpec bspec;
      bspec.native = make_program();
      bspec.peripheral = true;
      bspec.mode = BackupMode::kHalfback;
      bspec.fixed_pid = pid;
      bspec.server_backup = true;
      bspec.primary_cluster = primary;
      kernels_[backup]->Spawn(std::move(bspec));
    }
  };

  for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
    spawn_peripheral(PageShardPid(s), page_addrs_[s].primary,
                     PageShardPlace(place.page, s).backup,
                     [&] { return std::make_unique<PageServerProgram>(options_.page_server); });
  }
  spawn_peripheral(kFsPid, place.file.primary, place.file.backup, [&] {
    return std::make_unique<FileServerProgram>(options_.file_server);
  });
  spawn_peripheral(kTtyPid, place.tty.primary, place.tty.backup,
                   [&] { return std::make_unique<TtyServerProgram>(options_.tty_server); });

  // The process server is a *system* server (§7.6): standard page-diff sync
  // through the message system, passive backup PCB.
  {
    SpawnSpec spec;
    spec.native = std::make_unique<ProcessServerProgram>();
    spec.native_paged_ft = true;
    spec.mode = BackupMode::kQuarterback;
    spec.fixed_pid = kPsPid;
    spec.backup_cluster = ft ? place.process.backup : kNoCluster;
    // Aggressive sync keeps the PS backup near-current (it is tiny).
    spec.sync_reads_limit = 8;
    kernels_[place.process.primary]->Spawn(std::move(spec));
  }

  // Kernel page channels (§7.6): every kernel talks to every page-server
  // shard; the binding tag encodes the shard index.
  for (auto& kernel : kernels_) {
    for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
      kernel->CreateKernelChannel(page_addrs_[s], kBindPageChannel + s);
    }
  }
}

Gpid Machine::SpawnUserProgram(ClusterId cluster, const Executable& exe,
                               const UserSpawnOptions& opts) {
  AURAGEN_CHECK(booted_) << "SpawnUserProgram before Boot";
  SpawnSpec spec;
  spec.exe = exe;
  spec.mode = opts.mode;
  if (options_.config.strategy == FtStrategy::kNone) {
    spec.backup_cluster = kNoCluster;
  } else if (opts.backup_cluster != kNoCluster) {
    spec.backup_cluster = opts.backup_cluster;
  } else {
    // Default placement: the next *alive* cluster (none alive -> no backup).
    spec.backup_cluster = kNoCluster;
    for (uint32_t step = 1; step < options_.config.num_clusters; ++step) {
      ClusterId candidate = (cluster + step) % options_.config.num_clusters;
      if (kernels_[candidate]->alive()) {
        spec.backup_cluster = candidate;
        break;
      }
    }
  }
  spec.sync_reads_limit = opts.sync_reads_limit;
  spec.sync_time_limit_us = opts.sync_time_limit_us;
  spec.file_server = fs_addr_;
  spec.proc_server = ps_addr_;
  if (opts.with_tty) {
    spec.tty_server = tty_addr_;
    spec.tty_line = opts.tty_line;
  }
  Gpid pid = kernels_[cluster]->Spawn(std::move(spec));
  user_pids_.push_back(pid);
  return pid;
}

void Machine::Run(SimTime duration) {
  sharded_->Run(sharded_->Now() + duration);
  // Align idle shard clocks with the global time so direct schedules from
  // the outside (spawns, kernel pokes between runs) base correctly.
  sharded_->SyncShardClocks();
}

bool Machine::RunUntil(const std::function<bool()>& pred, SimTime max_duration) {
  if (pred()) {
    return true;
  }
  sharded_->Run(sharded_->Now() + max_duration, pred);
  sharded_->SyncShardClocks();
  return pred();
}

bool Machine::AllUsersExited() const {
  for (Gpid pid : user_pids_) {
    if (exit_statuses_.count(pid.value) == 0) {
      return false;
    }
  }
  return true;
}

bool Machine::RunUntilAllExited(SimTime max_duration) {
  return RunUntil([this] { return AllUsersExited(); }, max_duration);
}

void Machine::CrashCluster(ClusterId cluster) {
  AURAGEN_CHECK(cluster < kernels_.size());
  kernels_[cluster]->CrashNow();
}

void Machine::CrashClusterAt(SimTime when, ClusterId cluster) {
  sharded_->ScheduleControlAt(when, [this, cluster] { CrashCluster(cluster); });
}

void Machine::FailBusLine(int line) { bus_->FailLine(line); }

void Machine::RestoreBusLine(int line) { bus_->RestoreLine(line); }

void Machine::RestoreCluster(ClusterId cluster) {
  kernels_[cluster]->Restart();
  for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
    kernels_[cluster]->CreateKernelChannel(page_addrs_[s], kBindPageChannel + s);
  }
  // §7.3: halfbacks get new backups when the crashed cluster returns.
  // Every unprotected peripheral server whose disk (if any) reaches the
  // restored cluster re-creates its active backup there. A control event:
  // it reads the server directory and reaches into several kernels.
  sharded_->ScheduleControl(1000, [this, cluster] {
    std::vector<Gpid> peripherals = {kFsPid, kTtyPid};
    for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
      peripherals.push_back(PageShardPid(s));
    }
    for (Gpid pid : peripherals) {
      auto loc = server_locations_.find(pid.value);
      if (loc == server_locations_.end() || !kernels_[loc->second]->alive()) {
        continue;
      }
      Pcb* pcb = kernels_[loc->second]->FindProcess(pid);
      if (pcb == nullptr || pcb->server_backup || pcb->backup_cluster != kNoCluster) {
        continue;
      }
      auto disk = server_disks_.find(pid.value);
      if (disk != server_disks_.end() && !disk->second->AttachedTo(cluster)) {
        continue;  // §7.9: the backup must sit on the other disk port
      }
      kernels_[loc->second]->RecreateServerBackup(pid, cluster);
      auto patch = [&](ServerAddr& addr) {
        if (addr.pid == pid) {
          addr.backup = cluster;
        }
      };
      patch(fs_addr_);
      patch(ps_addr_);
      patch(tty_addr_);
      for (ServerAddr& addr : page_addrs_) {
        patch(addr);
      }
    }
  });
}

void Machine::InjectTtyInput(uint32_t line, const std::string& text, SimTime at) {
  sharded_->ScheduleControlAt(at, [this, line, text] {
    auto it = server_locations_.find(kTtyPid.value);
    if (it == server_locations_.end() || !kernels_[it->second]->alive()) {
      return;  // terminal line dead with its cluster; user must retype
    }
    ByteWriter w;
    w.U8(static_cast<uint8_t>(ReqTag::kDevInput));
    w.U32(line);
    w.Blob(Bytes(text.begin(), text.end()));
    kernels_[it->second]->InjectLocalMessage(kTtyPid, kBindSelfChannel, w.Take());
  });
}

std::string Machine::TtyOutput(uint32_t line) const {
  auto it = tty_dedup_.find(line);
  if (it == tty_dedup_.end()) {
    return {};
  }
  std::string out;
  for (const auto& [seq, text] : it->second) {
    out += text;
  }
  return out;
}

size_t Machine::TotalLiveProcesses() const {
  size_t n = 0;
  for (const auto& kernel : kernels_) {
    if (kernel->alive()) {
      n += kernel->num_live_processes();
    }
  }
  return n;
}

Metrics Machine::metrics() const {
  Metrics agg;
  for (const auto& env : envs_) {
    agg.Accumulate(env->metrics());
  }
  return agg;
}

SimTime Machine::LocalNow() const {
  ShardId s = sharded_->CurrentShard();
  return s == kNoShard ? sharded_->Now() : sharded_->ShardNow(s);
}

// ------------------------------------------------- ClusterEnv backends

void Machine::DiskReadFrom(ClusterId from, Gpid server, BlockNum block,
                           std::function<void(Result<Bytes>)> done) {
  // max() never binds on the pre-fabric machine (lookahead <= arbitration by
  // construction); it keeps the hop legal when a custom topology's segment
  // buses are all slower than the SystemConfig-level `bus`.
  const SimTime hop = std::max(options_.config.bus.arbitration_us, plan_.lookahead_us);
  const ShardId home = plan_.shard_of_cluster(from);
  sharded_->ScheduleOn(
      kSharedShard, hop,
      [this, home, hop, server, block, done = std::move(done)]() mutable {
        auto it = server_disks_.find(server.value);
        AURAGEN_CHECK(it != server_disks_.end()) << "no disk bound to " << GpidStr(server);
        if (tracer_ != nullptr) {
          tracer_->Record(TraceEventKind::kDiskRead, kNoCluster, server.value, 0, block, 0);
        }
        it->second->Read(block, [this, home, hop, done = std::move(done)](Result<Bytes> r) mutable {
          sharded_->ScheduleOn(home, hop,
                               [done = std::move(done), r = std::move(r)]() mutable {
                                 done(std::move(r));
                               });
        });
      });
}

void Machine::DiskWriteFrom(ClusterId from, Gpid server, BlockNum block, Bytes data,
                            std::function<void(Result<void>)> done) {
  const SimTime hop = std::max(options_.config.bus.arbitration_us, plan_.lookahead_us);
  const ShardId home = plan_.shard_of_cluster(from);
  sharded_->ScheduleOn(
      kSharedShard, hop,
      [this, home, hop, server, block, data = std::move(data),
       done = std::move(done)]() mutable {
        auto it = server_disks_.find(server.value);
        AURAGEN_CHECK(it != server_disks_.end()) << "no disk bound to " << GpidStr(server);
        if (tracer_ != nullptr) {
          tracer_->Record(TraceEventKind::kDiskWrite, kNoCluster, server.value, 0, block,
                          data.size());
        }
        it->second->Write(block, std::move(data),
                          [this, home, hop, done = std::move(done)](Result<void> r) mutable {
                            sharded_->ScheduleOn(home, hop,
                                                 [done = std::move(done), r]() mutable {
                                                   done(r);
                                                 });
                          });
      });
}

void Machine::DiskWriteMultiFrom(ClusterId from, Gpid server, DiskWriteBatch batch,
                                 std::function<void(Result<void>)> done) {
  const SimTime hop = std::max(options_.config.bus.arbitration_us, plan_.lookahead_us);
  const ShardId home = plan_.shard_of_cluster(from);
  sharded_->ScheduleOn(
      kSharedShard, hop,
      [this, home, hop, server, batch = std::move(batch),
       done = std::move(done)]() mutable {
        auto it = server_disks_.find(server.value);
        AURAGEN_CHECK(it != server_disks_.end()) << "no disk bound to " << GpidStr(server);
        if (tracer_ != nullptr) {
          uint64_t bytes = 0;
          for (const auto& [block, data] : batch) bytes += data.size();
          // One trace event for the whole transaction; a = first home block,
          // channel = batch size.
          tracer_->Record(TraceEventKind::kDiskWrite, kNoCluster, server.value,
                          batch.size(), batch.front().first, bytes);
        }
        it->second->WriteMulti(std::move(batch),
                               [this, home, hop, done = std::move(done)](Result<void> r) mutable {
                                 sharded_->ScheduleOn(home, hop,
                                                      [done = std::move(done), r]() mutable {
                                                        done(r);
                                                      });
                               });
      });
}

void Machine::TtyEmitFrom(ClusterId /*from*/, Gpid server, const Bytes& data) {
  ByteReader r(data);
  TtyRecord rec;
  rec.line = r.U32();
  rec.seq = r.U64();
  Bytes text = r.Blob();
  rec.text.assign(text.begin(), text.end());
  rec.at = LocalNow();
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventKind::kTtyEmit, kNoCluster, server.value, 0, rec.line,
                    rec.seq);
  }
  auto& per_line = tty_dedup_[rec.line];
  if (per_line.count(rec.seq) != 0) {
    ++tty_duplicates_;  // recovery re-emission (§7.9 window); content equal
  } else {
    per_line[rec.seq] = rec.text;
  }
  tty_raw_.push_back(std::move(rec));
}

ClusterId Machine::PlaceNewBackupFrom(ClusterId from, ClusterId avoid_a, ClusterId avoid_b) {
  const Kernel& believer = *kernels_[from];
  for (ClusterId c = 0; c < kernels_.size(); ++c) {
    if (c == avoid_a || c == avoid_b) {
      continue;
    }
    const bool usable = c == from ? believer.alive() : believer.PeerBelievedAlive(c);
    if (usable) {
      return c;
    }
  }
  return kNoCluster;
}

std::unique_ptr<NativeProgram> Machine::MakeServerProgram(Gpid pid) {
  if (pid == kPsPid) {
    return std::make_unique<ProcessServerProgram>();
  }
  for (uint32_t s = 0; s < page_addrs_.size(); ++s) {
    if (pid == PageShardPid(s)) {
      return std::make_unique<PageServerProgram>(options_.page_server);
    }
  }
  if (pid == kFsPid) {
    return std::make_unique<FileServerProgram>(options_.file_server);
  }
  if (pid == kTtyPid) {
    return std::make_unique<TtyServerProgram>(options_.tty_server);
  }
  AURAGEN_PANIC("unknown server pid");
}

void Machine::OnServerTakeover(Gpid pid, ClusterId new_cluster) {
  server_locations_[pid.value] = new_cluster;
  auto patch = [&](ServerAddr& addr) {
    if (addr.pid == pid) {
      addr.primary = new_cluster;
      addr.backup = kNoCluster;  // halfback: re-backed when the old cluster returns
    }
  };
  patch(fs_addr_);
  patch(ps_addr_);
  patch(tty_addr_);
  for (ServerAddr& addr : page_addrs_) {
    patch(addr);
  }
}

void Machine::OnProcessExit(Gpid pid, int32_t status) {
  exit_statuses_[pid.value] = status;
}

void Machine::OnDebugPutc(Gpid pid, char c) {
  debug_output_[pid.value].push_back(c);
}

}  // namespace auragen
