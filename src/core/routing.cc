#include "src/core/routing.h"

#include <utility>

namespace auragen {

RoutingEntry& RoutingTable::Create(ChannelId channel, Gpid owner, bool backup_entry) {
  Key key{channel, owner, backup_entry};
  RoutingEntry entry;
  entry.channel = channel;
  entry.owner = owner;
  entry.backup_entry = backup_entry;
  auto [it, inserted] = entries_.insert_or_assign(key, std::move(entry));
  if (inserted) {
    index_.emplace(key, &it->second);
    by_owner_[backup_entry][owner].emplace(channel, &it->second);
  }
  return it->second;
}

RoutingEntry* RoutingTable::Find(ChannelId channel, Gpid owner, bool backup_entry) {
  auto it = index_.find(Key{channel, owner, backup_entry});
  return it == index_.end() ? nullptr : it->second;
}

const RoutingEntry* RoutingTable::Find(ChannelId channel, Gpid owner, bool backup_entry) const {
  auto it = index_.find(Key{channel, owner, backup_entry});
  return it == index_.end() ? nullptr : it->second;
}

void RoutingTable::Remove(ChannelId channel, Gpid owner, bool backup_entry) {
  const Key key{channel, owner, backup_entry};
  if (index_.erase(key) == 0) {
    return;
  }
  entries_.erase(key);
  auto& owners = by_owner_[backup_entry];
  auto it = owners.find(owner);
  it->second.erase(channel);
  if (it->second.empty()) {
    owners.erase(it);
  }
}

std::vector<RoutingEntry*> RoutingTable::EntriesOf(Gpid owner, bool backup_entry) {
  std::vector<RoutingEntry*> out;
  const auto& owners = by_owner_[backup_entry];
  if (auto it = owners.find(owner); it != owners.end()) {
    out.reserve(it->second.size());
    for (const auto& [channel, entry] : it->second) {
      out.push_back(entry);
    }
  }
  return out;
}

void RoutingTable::RemoveAllOf(Gpid owner, bool backup_entry) {
  auto& owners = by_owner_[backup_entry];
  auto it = owners.find(owner);
  if (it == owners.end()) {
    return;
  }
  for (const auto& [channel, entry] : it->second) {
    const Key key{channel, owner, backup_entry};
    index_.erase(key);
    entries_.erase(key);
  }
  owners.erase(it);
}

}  // namespace auragen
