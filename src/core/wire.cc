#include "src/core/wire.h"

namespace auragen {

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kUser: return "user";
    case MsgKind::kOpenReply: return "open-reply";
    case MsgKind::kSignal: return "signal";
    case MsgKind::kClose: return "close";
    case MsgKind::kSync: return "sync";
    case MsgKind::kBirthNotice: return "birth-notice";
    case MsgKind::kExitNotice: return "exit-notice";
    case MsgKind::kCrashNotice: return "crash-notice";
    case MsgKind::kHeartbeat: return "heartbeat";
    case MsgKind::kBackupCreate: return "backup-create";
    case MsgKind::kBackupReady: return "backup-ready";
    case MsgKind::kChanCreate: return "chan-create";
    case MsgKind::kPageWrite: return "page-write";
    case MsgKind::kPageRequest: return "page-request";
    case MsgKind::kPageReply: return "page-reply";
    case MsgKind::kServerSync: return "server-sync";
    case MsgKind::kCheckpoint: return "checkpoint";
    case MsgKind::kProcCrash: return "proc-crash";
  }
  return "?";
}

void MsgHeader::Serialize(ByteWriter& w) const {
  w.U8(static_cast<uint8_t>(kind));
  w.U64(src_pid.value);
  w.U64(dst_pid.value);
  w.U64(channel.value);
  w.U32(dst_primary_cluster);
  w.U32(dst_backup_cluster);
  w.U32(src_backup_cluster);
}

MsgHeader MsgHeader::Deserialize(ByteReader& r) {
  MsgHeader h;
  h.kind = static_cast<MsgKind>(r.U8());
  h.src_pid.value = r.U64();
  h.dst_pid.value = r.U64();
  h.channel.value = r.U64();
  h.dst_primary_cluster = r.U32();
  h.dst_backup_cluster = r.U32();
  h.src_backup_cluster = r.U32();
  return h;
}

Bytes Msg::Encode() const {
  ByteWriter w(MsgHeader::kWireBytes + 4 + body.size());  // header + blob
  header.Serialize(w);
  w.Blob(body);
  return w.Take();
}

Msg Msg::Decode(ByteView frame_payload) {
  ByteReader r(frame_payload);
  Msg m;
  m.header = MsgHeader::Deserialize(r);
  m.body = r.Blob();
  return m;
}

Msg MsgView::ToOwned() const {
  Msg m;
  m.header = header;
  m.body = BufferPool::Get().Copy(body());
  return m;
}

MsgView MsgView::FromOwned(Msg&& m) {
  MsgView v;
  v.header = m.header;
  v.body_len = static_cast<uint32_t>(m.body.size());
  v.payload = MakePayload(std::move(m.body));
  v.body_off = 0;
  return v;
}

MsgView MsgView::Parse(const PayloadPtr& frame_payload) {
  ByteReader r(*frame_payload);
  MsgView v;
  v.header = MsgHeader::Deserialize(r);
  ByteView body = r.BlobView();
  v.payload = frame_payload;
  v.body_off = static_cast<uint32_t>(body.data() - frame_payload->data());
  v.body_len = static_cast<uint32_t>(body.size());
  return v;
}

Bytes SyncRecord::Encode() const {
  ByteWriter w;
  w.U64(pid.value);
  w.U64(sync_seq);
  w.U8(first_sync ? 1 : 0);
  w.Blob(context);
  w.U32(sig_handler);
  w.U64(exec_us);
  w.U32(backup_cluster);
  w.U32(primary_cluster);
  w.U8(mode);
  w.U64(parent.value);
  w.U64(family_head.value);
  w.U32(static_cast<uint32_t>(channels.size()));
  for (const SyncChannelRecord& c : channels) {
    w.U64(c.channel.value);
    w.I32(c.fd);
    w.U8(c.opened_since_sync ? 1 : 0);
    w.U8(c.closed_since_sync ? 1 : 0);
    w.U32(c.reads_since_sync);
  }
  w.U32(static_cast<uint32_t>(writes_in_flight.size()));
  for (const auto& [ch, writes] : writes_in_flight) {
    w.U64(ch);
    w.U32(writes);
  }
  return w.Take();
}

SyncRecord SyncRecord::Decode(ByteView body) {
  ByteReader r(body);
  SyncRecord s;
  s.pid.value = r.U64();
  s.sync_seq = r.U64();
  s.first_sync = r.U8() != 0;
  s.context = r.Blob();
  s.sig_handler = r.U32();
  s.exec_us = r.U64();
  s.backup_cluster = r.U32();
  s.primary_cluster = r.U32();
  s.mode = r.U8();
  s.parent.value = r.U64();
  s.family_head.value = r.U64();
  uint32_t n = r.U32();
  s.channels.resize(n);
  for (SyncChannelRecord& c : s.channels) {
    c.channel.value = r.U64();
    c.fd = r.I32();
    c.opened_since_sync = r.U8() != 0;
    c.closed_since_sync = r.U8() != 0;
    c.reads_since_sync = r.U32();
  }
  uint32_t wif = r.U32();
  s.writes_in_flight.resize(wif);
  for (auto& [ch, writes] : s.writes_in_flight) {
    ch = r.U64();
    writes = r.U32();
  }
  return s;
}

Gpid SyncRecord::PeekPid(ByteView body) {
  ByteReader r(body);
  Gpid pid;
  pid.value = r.U64();
  return pid;
}

ClusterId SyncRecord::PeekBackupCluster(ByteView body) {
  ByteReader r(body);
  r.U64();       // pid
  r.U64();       // sync_seq
  r.U8();        // first_sync
  r.BlobView();  // context
  r.U32();       // sig_handler
  r.U64();       // exec_us
  return r.U32();
}

Bytes BirthNotice::Encode() const {
  ByteWriter w;
  w.U64(parent.value);
  w.U64(child.value);
  w.U64(fork_seq);
  w.U8(mode);
  w.U64(family_head.value);
  w.U32(static_cast<uint32_t>(chan_creates.size()));
  for (const Bytes& c : chan_creates) {
    w.Blob(c);
  }
  return w.Take();
}

BirthNotice BirthNotice::Decode(ByteView body) {
  ByteReader r(body);
  BirthNotice b;
  b.parent.value = r.U64();
  b.child.value = r.U64();
  b.fork_seq = r.U64();
  b.mode = r.U8();
  b.family_head.value = r.U64();
  uint32_t n = r.U32();
  b.chan_creates.resize(n);
  for (Bytes& c : b.chan_creates) {
    c = r.Blob();
  }
  return b;
}

Bytes KernelContext::Encode() const {
  ByteWriter w;
  w.Blob(body_context);
  w.I32(next_fd);
  w.U32(next_group);
  w.U32(static_cast<uint32_t>(groups.size()));
  for (const auto& [gid, fds] : groups) {
    w.U32(gid);
    w.U32(static_cast<uint32_t>(fds.size()));
    for (int32_t fd : fds) {
      w.I32(fd);
    }
  }
  w.U64(fork_seq);
  w.U8(in_signal ? 1 : 0);
  return w.Take();
}

KernelContext KernelContext::Decode(ByteView blob) {
  ByteReader r(blob);
  KernelContext k;
  k.body_context = r.Blob();
  k.next_fd = r.I32();
  k.next_group = r.U32();
  uint32_t n = r.U32();
  k.groups.resize(n);
  for (auto& [gid, fds] : k.groups) {
    gid = r.U32();
    uint32_t m = r.U32();
    fds.resize(m);
    for (int32_t& fd : fds) {
      fd = r.I32();
    }
  }
  k.fork_seq = r.U64();
  k.in_signal = r.U8() != 0;
  return k;
}

Bytes ChanCreate::Encode() const {
  ByteWriter w;
  w.U64(channel.value);
  w.U64(owner.value);
  w.U8(backup_entry ? 1 : 0);
  w.I32(fd);
  w.U64(peer_pid.value);
  w.U32(peer_primary_cluster);
  w.U32(peer_backup_cluster);
  w.U32(own_backup_cluster);
  w.U8(peer_kind);
  w.U8(peer_mode);
  w.U32(binding_tag);
  return w.Take();
}

ChanCreate ChanCreate::Decode(ByteView body) {
  ByteReader r(body);
  ChanCreate c;
  c.channel.value = r.U64();
  c.owner.value = r.U64();
  c.backup_entry = r.U8() != 0;
  c.fd = r.I32();
  c.peer_pid.value = r.U64();
  c.peer_primary_cluster = r.U32();
  c.peer_backup_cluster = r.U32();
  c.own_backup_cluster = r.U32();
  c.peer_kind = r.U8();
  c.peer_mode = r.U8();
  c.binding_tag = r.U32();
  return c;
}

Bytes OpenReplyBody::Encode() const {
  ByteWriter w;
  w.U64(request_cookie);
  w.I32(status);
  w.U64(channel.value);
  w.U64(peer_pid.value);
  w.U32(peer_primary_cluster);
  w.U32(peer_backup_cluster);
  w.U8(peer_kind);
  w.U8(peer_mode);
  return w.Take();
}

OpenReplyBody OpenReplyBody::Decode(ByteView body) {
  ByteReader r(body);
  OpenReplyBody o;
  o.request_cookie = r.U64();
  o.status = r.I32();
  o.channel.value = r.U64();
  o.peer_pid.value = r.U64();
  o.peer_primary_cluster = r.U32();
  o.peer_backup_cluster = r.U32();
  o.peer_kind = r.U8();
  o.peer_mode = r.U8();
  return o;
}

Bytes PageWriteBody::Encode() const {
  ByteWriter w(8 + 4 + 4 + content.size());  // pid, page, blob length, blob
  w.U64(pid.value);
  w.U32(page);
  w.Blob(content);
  return w.Take();
}

PageWriteBody PageWriteBody::Decode(ByteView body) {
  ByteReader r(body);
  PageWriteBody p;
  p.pid.value = r.U64();
  p.page = r.U32();
  p.content = r.Blob();
  return p;
}

Bytes PageRequestBody::Encode() const {
  ByteWriter w;
  w.U64(pid.value);
  w.U32(page);
  w.U32(reply_to);
  w.U64(cookie);
  return w.Take();
}

PageRequestBody PageRequestBody::Decode(ByteView body) {
  ByteReader r(body);
  PageRequestBody p;
  p.pid.value = r.U64();
  p.page = r.U32();
  p.reply_to = r.U32();
  p.cookie = r.U64();
  return p;
}

Bytes PageReplyBody::Encode() const {
  ByteWriter w;
  w.U64(pid.value);
  w.U32(page);
  w.U64(cookie);
  w.U8(known ? 1 : 0);
  w.Blob(content);
  return w.Take();
}

PageReplyBody PageReplyBody::Decode(ByteView body) {
  ByteReader r(body);
  PageReplyBody p;
  p.pid.value = r.U64();
  p.page = r.U32();
  p.cookie = r.U64();
  p.known = r.U8() != 0;
  p.content = r.Blob();
  return p;
}

void SavedQueueRecord::Serialize(ByteWriter& w) const {
  w.U64(channel.value);
  w.I32(fd);
  w.U64(peer_pid.value);
  w.U32(peer_primary_cluster);
  w.U32(peer_backup_cluster);
  w.U8(peer_kind);
  w.U8(peer_mode);
  w.U32(writes_since_sync);
  w.U32(static_cast<uint32_t>(queued.size()));
  for (const Bytes& m : queued) {
    w.Blob(m);
  }
}

SavedQueueRecord SavedQueueRecord::Deserialize(ByteReader& r) {
  SavedQueueRecord q;
  q.channel.value = r.U64();
  q.fd = r.I32();
  q.peer_pid.value = r.U64();
  q.peer_primary_cluster = r.U32();
  q.peer_backup_cluster = r.U32();
  q.peer_kind = r.U8();
  q.peer_mode = r.U8();
  q.writes_since_sync = r.U32();
  uint32_t n = r.U32();
  q.queued.resize(n);
  for (Bytes& m : q.queued) {
    m = r.Blob();
  }
  return q;
}

Bytes BackupCreateBody::Encode() const {
  ByteWriter w;
  w.U64(pid.value);
  w.U8(static_cast<uint8_t>(mode));
  w.U64(parent.value);
  w.U64(family_head.value);
  w.U32(primary_cluster);
  w.U8(has_sync ? 1 : 0);
  w.U8(is_server ? 1 : 0);
  w.U8(peripheral ? 1 : 0);
  w.U64(sync_seq);
  w.Blob(context);
  w.U32(sig_handler);
  w.Blob(exe);
  w.U32(static_cast<uint32_t>(fds.size()));
  for (const auto& [fd, chan] : fds) {
    w.I32(fd);
    w.U64(chan);
  }
  w.U32(static_cast<uint32_t>(queues.size()));
  for (const SavedQueueRecord& q : queues) {
    q.Serialize(w);
  }
  return w.Take();
}

BackupCreateBody BackupCreateBody::Decode(ByteView body) {
  ByteReader r(body);
  BackupCreateBody b;
  b.pid.value = r.U64();
  b.mode = static_cast<BackupMode>(r.U8());
  b.parent.value = r.U64();
  b.family_head.value = r.U64();
  b.primary_cluster = r.U32();
  b.has_sync = r.U8() != 0;
  b.is_server = r.U8() != 0;
  b.peripheral = r.U8() != 0;
  b.sync_seq = r.U64();
  b.context = r.Blob();
  b.sig_handler = r.U32();
  b.exe = r.Blob();
  uint32_t nfd = r.U32();
  b.fds.resize(nfd);
  for (auto& [fd, chan] : b.fds) {
    fd = r.I32();
    chan = r.U64();
  }
  uint32_t n = r.U32();
  b.queues.resize(n);
  for (SavedQueueRecord& q : b.queues) {
    q = SavedQueueRecord::Deserialize(r);
  }
  return b;
}

}  // namespace auragen
