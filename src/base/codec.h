// Byte-level message encoding.
//
// Everything that crosses the intercluster bus — user payloads, sync
// messages, open replies, birth notices, server state — is serialized into a
// flat byte vector with these little-endian writer/reader helpers. Keeping
// messages as plain bytes (instead of passing C++ objects by pointer between
// "clusters") is what keeps the simulation honest: a backup can only use
// information that was actually transmitted.
//
// Ownership model (DESIGN.md §13): encoded buffers are produced once at the
// sender, wrapped in a shared immutable PayloadPtr by the bus, and *viewed*
// (ByteView) everywhere else. Copying bytes is legal only at the point a
// queue takes ownership of a message; that copy, like the encoders, draws
// its buffer from the BufferPool.

#ifndef AURAGEN_SRC_BASE_CODEC_H_
#define AURAGEN_SRC_BASE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/check.h"

namespace auragen {

using Bytes = std::vector<uint8_t>;

// Non-owning view over a byte range (span-style). Implicitly constructible
// from Bytes so decode helpers accept either; the caller guarantees the
// underlying buffer outlives the view (frame payloads are kept alive by the
// PayloadPtr travelling alongside the view).
class ByteView {
 public:
  constexpr ByteView() = default;
  constexpr ByteView(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  ByteView(const Bytes& b) : data_(b.data()), size_(b.size()) {}  // NOLINT

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }

  ByteView subview(size_t off, size_t len) const {
    AURAGEN_CHECK(off + len <= size_) << "subview out of range";
    return ByteView(data_ + off, len);
  }

  // The one explicit copy point: materializes an owned buffer.
  Bytes ToBytes() const { return Bytes(data_, data_ + size_); }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

inline bool operator==(ByteView a, ByteView b) {
  return a.size() == b.size() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

// Free-list of byte buffers for the sim hot loop. Encoded payloads are
// allocated, shipped across the bus, queued, read and dropped again
// thousands of times a simulated second; recycling the vectors (capacity
// retained) keeps that churn off the allocator. Correctness never depends on
// the pool — it only changes where a buffer's storage comes from, never its
// contents.
//
// Each simulation is single-threaded; the pool is thread-local so the seed
// workers of a campaign, each running its own machine, never race on it.
class BufferPool {
 public:
  static BufferPool& Get();

  // Returns an empty buffer, reusing a pooled one's capacity if available.
  // `size_hint` is the expected length; it picks the size class, so a short
  // message never pins a page-sized buffer in a queue. 0: unknown (sized
  // for a message header and a short body).
  Bytes Acquire(size_t size_hint = 0);
  // An owned copy of `src` in a buffer drawn from the pool.
  Bytes Copy(ByteView src) {
    Bytes b = Acquire(src.size());
    b.assign(src.begin(), src.end());
    return b;
  }
  // Donates a buffer's storage back to the pool (contents discarded).
  void Release(Bytes&& buf);

  size_t pooled() const;
  uint64_t reuses() const { return reuses_; }      // Acquire served from the pool
  uint64_t fresh() const { return fresh_; }        // Acquire that had to allocate
  uint64_t releases() const { return releases_; }  // Release kept by the pool

 private:
  // Buffers are kept by power-of-two capacity class, 16 B up to 4 KiB
  // (page-sized buffers, such as page writes and replies, are not kept). A
  // fresh buffer is allocated at the requested length, rounded to the
  // allocator's granule; a sized acquire reuses one of the last few pooled
  // buffers of its length's class that holds the request. Traffic repeats a
  // few message shapes, so reuse is the rule, and a queued copy stays
  // within the class of its length. Each class retains at most
  // kMaxClassBytes, so buffers longer than that go back to the allocator:
  // retained buffers fragment the heap, and peak RSS shows it.
  static constexpr int kMinClass = 4;
  static constexpr int kMaxClass = 11;
  static constexpr size_t kScan = 8;
  static constexpr size_t kMaxClassBytes = 4 * 1024;
  // Unknown length: room for a message header and a short body, so an
  // encoder does not regrow the buffer byte by byte.
  static constexpr size_t kUnknownSize = 128;

  // Removes free_[c][i] from the pool and hands it out, emptied.
  Bytes Take(int c, size_t i);

  std::vector<Bytes> free_[kMaxClass + 1];  // [c]: capacity in [2^c, 2^(c+1))
  size_t class_bytes_[kMaxClass + 1] = {};
  uint64_t reuses_ = 0;
  uint64_t fresh_ = 0;
  uint64_t releases_ = 0;
};

// Shared immutable frame payload: one encode, one buffer, any number of
// readers (bus queue, per-destination deliveries, deferred executive work).
using PayloadPtr = std::shared_ptr<const Bytes>;

// Wraps an encoded buffer for zero-copy fan-out. The wrapper and its
// reference count share one allocation (make_shared); when the last
// reference drops, the buffer's storage returns to the BufferPool.
PayloadPtr MakePayload(Bytes&& bytes);

// Appends fixed-width little-endian fields and length-prefixed blobs. The
// default-constructed writer draws its buffer from the BufferPool, closing
// the encode -> transmit -> release -> encode recycling loop.
class ByteWriter {
 public:
  ByteWriter() : buf_(BufferPool::Get().Acquire()) {}
  explicit ByteWriter(Bytes initial) : buf_(std::move(initial)) {}
  // A pooled buffer sized for about `size_hint` bytes.
  explicit ByteWriter(size_t size_hint) : buf_(BufferPool::Get().Acquire(size_hint)) {}

  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void I32(int32_t v) { AppendLe(static_cast<uint32_t>(v)); }

  // Length-prefixed (u32) byte blob.
  void Blob(const uint8_t* data, size_t size) {
    U32(static_cast<uint32_t>(size));
    buf_.insert(buf_.end(), data, data + size);
  }
  void Blob(ByteView b) { Blob(b.data(), b.size()); }
  void Str(std::string_view s) { Blob(reinterpret_cast<const uint8_t*>(s.data()), s.size()); }

  // Raw bytes, no length prefix (caller knows the framing).
  void Raw(const uint8_t* data, size_t size) { buf_.insert(buf_.end(), data, data + size); }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

// Reads fields written by ByteWriter. Out-of-bounds reads are checked: a
// malformed message indicates an implementation bug. Nothing in the
// simulator corrupts payloads (every injected fault is fail-stop: crashes,
// process kills, bus-line and switch failures) and no checksum is carried,
// so a short read aborts rather than being reported as data damage.
class ByteReader {
 public:
  explicit ByteReader(ByteView buf) : data_(buf.data()), size_(buf.size()) {}
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() { return data_[Advance(1)]; }
  uint16_t U16() { return ReadLe<uint16_t>(); }
  uint32_t U32() { return ReadLe<uint32_t>(); }
  uint64_t U64() { return ReadLe<uint64_t>(); }
  int32_t I32() { return static_cast<int32_t>(ReadLe<uint32_t>()); }
  int64_t I64() { return static_cast<int64_t>(ReadLe<uint64_t>()); }

  Bytes Blob() {
    uint32_t n = U32();
    size_t at = Advance(n);
    return Bytes(data_ + at, data_ + at + n);
  }
  // Zero-copy variant: the returned view aliases the reader's buffer.
  ByteView BlobView() {
    uint32_t n = U32();
    size_t at = Advance(n);
    return ByteView(data_ + at, n);
  }
  std::string Str() {
    uint32_t n = U32();
    size_t at = Advance(n);
    return std::string(reinterpret_cast<const char*>(data_ + at), n);
  }

  size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  size_t pos() const { return pos_; }

 private:
  template <typename T>
  T ReadLe() {
    size_t at = Advance(sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[at + i]) << (8 * i)));
    }
    return v;
  }

  size_t Advance(size_t n) {
    AURAGEN_CHECK(pos_ + n <= size_) << "short message: need" << n << "have" << (size_ - pos_);
    size_t at = pos_;
    pos_ += n;
    return at;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// FNV-1a over a byte range; used by the bus model's corruption detection and
// by tests comparing state snapshots.
uint64_t Fnv1a(const uint8_t* data, size_t size);
inline uint64_t Fnv1a(ByteView b) { return Fnv1a(b.data(), b.size()); }

// Renders bytes as hex for diagnostics (truncated past `max_bytes`).
std::string HexDump(const Bytes& b, size_t max_bytes = 32);

}  // namespace auragen

#endif  // AURAGEN_SRC_BASE_CODEC_H_
