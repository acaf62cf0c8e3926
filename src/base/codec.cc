#include "src/base/codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

namespace auragen {

BufferPool& BufferPool::Get() {
  static thread_local BufferPool pool;
  return pool;
}

Bytes BufferPool::Acquire(size_t size_hint) {
  const size_t want = size_hint == 0 ? kUnknownSize : size_hint;
  // A fresh buffer gets the whole allocator granule `want` lands in (16
  // bytes, less the allocator's 8-byte header): the same memory, and it
  // then fits every request of that granule.
  const size_t granule = ((want + 8 + 15) & ~size_t{15}) - 8;
  const int c = std::clamp(static_cast<int>(std::bit_width(granule)) - 1, kMinClass, kMaxClass);
  if (size_hint == 0) {
    // Unknown length (an encoder): the smallest pooled buffer that holds a
    // short message. Encoder output is transmitted and released, never
    // queued, so a roomy buffer costs nothing.
    for (int k = c; k <= kMaxClass; ++k) {
      if (!free_[k].empty()) {
        return Take(k, free_[k].size() - 1);
      }
    }
  } else {
    // The most recently pooled buffer of the class that holds `want`.
    std::vector<Bytes>& list = free_[c];
    const size_t scan_end = list.size() > kScan ? list.size() - kScan : 0;
    for (size_t i = list.size(); i-- > scan_end;) {
      if (list[i].capacity() >= want) {
        return Take(c, i);
      }
    }
  }
  ++fresh_;
  Bytes b;
  b.reserve(granule);
  return b;
}

Bytes BufferPool::Take(int c, size_t i) {
  std::vector<Bytes>& list = free_[c];
  Bytes b = std::move(list[i]);
  list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
  class_bytes_[c] -= b.capacity();
  b.clear();  // capacity retained
  ++reuses_;
  return b;
}

void BufferPool::Release(Bytes&& buf) {
  const size_t cap = buf.capacity();
  const int c = std::bit_width(cap) - 1;  // capacity in [2^c, 2^(c+1))
  if (c < kMinClass || c > kMaxClass || class_bytes_[c] + cap > kMaxClassBytes) {
    return;  // let the allocator have it
  }
  class_bytes_[c] += cap;
  free_[c].push_back(std::move(buf));
  ++releases_;
}

size_t BufferPool::pooled() const {
  size_t n = 0;
  for (const std::vector<Bytes>& list : free_) {
    n += list.size();
  }
  return n;
}

namespace {

// A payload whose destructor hands its storage to the pool.
struct PooledPayload : Bytes {
  explicit PooledPayload(Bytes&& bytes) : Bytes(std::move(bytes)) {}
  ~PooledPayload() { BufferPool::Get().Release(std::move(static_cast<Bytes&>(*this))); }
};

}  // namespace

PayloadPtr MakePayload(Bytes&& bytes) {
  return std::make_shared<const PooledPayload>(std::move(bytes));
}

uint64_t Fnv1a(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string HexDump(const Bytes& b, size_t max_bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  size_t n = b.size() < max_bytes ? b.size() : max_bytes;
  out.reserve(n * 3 + 8);
  for (size_t i = 0; i < n; ++i) {
    if (i != 0) {
      out.push_back(' ');
    }
    out.push_back(kHex[b[i] >> 4]);
    out.push_back(kHex[b[i] & 0xf]);
  }
  if (n < b.size()) {
    out += " ...";
  }
  return out;
}

}  // namespace auragen
