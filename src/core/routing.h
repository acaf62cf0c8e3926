// Cluster-local routing table (§7.4.1).
//
// One entry defines one end of a channel for one process. A channel between
// two backed-up processes is four entries across up to four clusters: a
// primary entry at each endpoint's cluster and a backup entry at each
// endpoint's backup cluster. An entry holds everything §7.4.1 lists:
// addressing for the three delivery destinations, the incoming queue, and
// status — plus the two counters the fault-tolerance algorithms live on:
//   reads_since_sync  (primary entries; reported in the next sync message so
//                      the backup can discard that many saved messages, §5.2)
//   writes_since_sync (backup entries; incremented when the sender's-backup
//                      copy arrives, §5.1; decremented during rollforward to
//                      suppress already-sent messages, §5.4)

#ifndef AURAGEN_SRC_CORE_ROUTING_H_
#define AURAGEN_SRC_CORE_ROUTING_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/fifo.h"
#include "src/base/types.h"
#include "src/core/wire.h"

namespace auragen {

struct QueuedMsg {
  uint64_t arrival_seq = 0;  // assigned on arrival at this cluster (§7.5.1:
                             // lets `which` behave identically at the backup)
  Msg msg;
};

struct RoutingEntry {
  ChannelId channel;
  Gpid owner;                 // the local process (or backup) this end serves
  bool backup_entry = false;

  Fd fd = kBadFd;             // owner's descriptor (backup entries learn the
                              // binding from birth notices / sync records)
  Gpid peer_pid;
  ClusterId peer_primary_cluster = kNoCluster;
  ClusterId peer_backup_cluster = kNoCluster;
  ClusterId own_backup_cluster = kNoCluster;  // where the owner's backup entry lives
  uint8_t peer_kind = 0;      // PeerKind: user peer vs server (read semantics)
  uint8_t peer_mode = 0;      // peer's BackupMode (crash patching, §7.10.1)
  uint32_t binding_tag = 0;   // server-side meaning (e.g. tty line number)

  Fifo<QueuedMsg> queue;

  uint32_t reads_since_sync = 0;    // primary entries
  uint32_t writes_since_sync = 0;   // backup entries
  bool written_since_sync = false;  // primary entries: include in sync record
                                    // so the backup zeroes its write count
  bool opened_since_sync = true;    // include in next sync record (§7.8)
  bool closed_local = false;        // owner closed its end
  bool closed_by_peer = false;      // kClose arrived; EOF after queue drains
  bool unusable = false;            // peer is a fullback awaiting a new
                                    // backup (§7.10.1 step 1)
  uint64_t writes_total = 0;        // diagnostics/metrics only
  uint64_t reads_total = 0;
};

// A routing entry remembered by its user — an fd binding, a process's
// signal channel — so the hot syscalls skip the hashed probe. The pointer is
// trusted only while the table's removal epoch still equals `epoch`, and
// only for the key it was resolved under (checked against the entry itself,
// which is alive whenever the epoch matches). A cache that misses re-probes
// and refills; nullptr is never cached.
struct EntryCache {
  RoutingEntry* entry = nullptr;
  uint64_t epoch = 0;
};

class RoutingTable {
 public:
  struct Key {
    ChannelId channel;
    Gpid owner;
    bool backup_entry;
    friend bool operator<(const Key& a, const Key& b) {
      if (a.channel != b.channel) {
        return a.channel < b.channel;
      }
      if (a.owner != b.owner) {
        return a.owner < b.owner;
      }
      return a.backup_entry < b.backup_entry;
    }
    friend bool operator==(const Key& a, const Key& b) {
      return a.channel == b.channel && a.owner == b.owner &&
             a.backup_entry == b.backup_entry;
    }
  };

  // Move-only: the indexes point into entries_' nodes, which a move carries
  // along and a copy would not. A move bumps the removal epoch of both
  // tables past either one's, so no cache filled before the move hits after
  // it (Kernel::Restart replaces its table by move-assignment).
  RoutingTable() = default;
  RoutingTable(const RoutingTable&) = delete;
  RoutingTable& operator=(const RoutingTable&) = delete;
  RoutingTable(RoutingTable&& other) { *this = std::move(other); }
  RoutingTable& operator=(RoutingTable&& other);

  // Creates an entry; replaces any stale entry under the same key. The map
  // node is reused, so an EntryCache holding it stays valid.
  RoutingEntry& Create(ChannelId channel, Gpid owner, bool backup_entry);

  RoutingEntry* Find(ChannelId channel, Gpid owner, bool backup_entry);
  const RoutingEntry* Find(ChannelId channel, Gpid owner, bool backup_entry) const;

  // Find through `cache`: no hashed probe when the cache holds this key's
  // entry from the current epoch; otherwise probes and refills the cache.
  RoutingEntry* Find(ChannelId channel, Gpid owner, bool backup_entry, EntryCache& cache) {
    RoutingEntry* e = cache.entry;
    if (e != nullptr && cache.epoch == epoch_ && e->channel == channel && e->owner == owner &&
        e->backup_entry == backup_entry) {
      return e;
    }
    e = Find(channel, owner, backup_entry);
    if (e != nullptr) {
      cache.entry = e;
      cache.epoch = epoch_;
    }
    return e;
  }

  // Removal epoch: moves on every Remove/RemoveAllOf that drops an entry
  // (and on a move of the table), never on Create or Find, and never goes
  // back.
  uint64_t epoch() const { return epoch_; }

  void Remove(ChannelId channel, Gpid owner, bool backup_entry);

  // All entries owned by `owner` (primary or backup per flag), in channel
  // order — the order ForEach would visit them in.
  std::vector<RoutingEntry*> EntriesOf(Gpid owner, bool backup_entry);

  // Visits the entries EntriesOf returns, in the same order, in place.
  // `fn(RoutingEntry&)` must not create or remove entries.
  template <typename Fn>
  void ForEachOf(Gpid owner, bool backup_entry, Fn&& fn) {
    const auto& owners = by_owner_[backup_entry];
    if (auto it = owners.find(owner); it != owners.end()) {
      for (const auto& [channel, entry] : it->second) {
        fn(*entry);
      }
    }
  }

  // Drops every entry owned by `owner` with the given role.
  void RemoveAllOf(Gpid owner, bool backup_entry);

  // Full scan (crash handling walks the whole table, §7.10.1 step 1).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& [key, entry] : entries_) {
      fn(entry);
    }
  }

  size_t size() const { return entries_.size(); }

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const noexcept {
      uint64_t h = k.channel.value * 0x9e3779b97f4a7c15ull;
      h ^= ((k.owner.value << 1) | (k.backup_entry ? 1u : 0u)) + 0x7f4a7c15ull + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  // One owner's entries of one role, by channel.
  using OwnerEntries = std::map<ChannelId, RoutingEntry*>;

  // The entries themselves, ordered so that ForEach (crash handling) visits
  // them in a fixed order. Map nodes never move, so the two indexes below
  // hold plain pointers into it.
  std::map<Key, RoutingEntry> entries_;
  // Find: one hashed probe instead of an ordered-tree descent.
  std::unordered_map<Key, RoutingEntry*, KeyHash> index_;
  // EntriesOf / RemoveAllOf: by role (0 primary, 1 backup), then owner.
  std::unordered_map<Gpid, OwnerEntries> by_owner_[2];
  uint64_t epoch_ = 1;
};

}  // namespace auragen

#endif  // AURAGEN_SRC_CORE_ROUTING_H_
