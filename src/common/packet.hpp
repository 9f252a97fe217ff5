// packet.hpp — the zero-copy SDU buffer of the whole datapath.
//
// A Packet is a cheap, refcounted handle onto one buffer with reserved
// headroom in front of the data. Each layer of the recursive stack
// *prepends* its PCI into the headroom instead of re-allocating and
// re-copying the payload, so encapsulation through N stacked DIFs costs
// O(1) copies instead of O(N) — the mbuf/skb idea applied to the
// paper's "every layer is the same IPC" recursion.
//
// Sharing model (the frontier rule): copying a Packet copies the handle,
// not the bytes. Handles only ever move their view forward (pull/trim)
// or grow it backward (prepend). Prepending writes into the buffer, so
// it is done in place only when no *other* handle could see the bytes
// being written: either the buffer is unshared, or this handle sits at
// the buffer's frontier (the lowest offset any handle has reached, which
// every other handle's view starts at or after). Otherwise prepend
// copies first (copy-on-write). In the forward path the frame traveling
// down the stack is always the frontier handle, so EFCP retransmit
// queues and reorder buffers can hold handles for free; only an actual
// retransmission — which prepends onto a parked, non-frontier handle —
// pays a copy.
//
// Allocation model: a buffer is ONE heap block, a 16-byte header
// (refcount, frontier, size class) followed by its bytes. Buffers come
// from PacketArena, a THREAD-LOCAL pool of power-of-two size-class
// free-lists; a buffer's class is fixed when it is made, so a list only
// ever holds buffers of its own size. Releasing the last handle returns
// the buffer to the releasing thread's list for its class, so
// steady-state traffic recycles a small working set instead of hitting
// the global allocator per PDU. Under the sharded scheduler each worker
// thread drives a fixed block of shards, so the thread-local pool *is*
// the per-shard pool and the hot path stays free of atomics and locks.
// A buffer that crosses shards simply migrates pools: it is freed into
// whichever thread dropped the last handle. The refcount stays plain
// (non-atomic) because a Packet is only ever visible to one thread at a
// time — the cross-shard path enforces exclusive ownership (deep-copying
// shared buffers) and the ring's release/acquire pair orders the
// hand-off. Nothing zero-fills headroom: every prepend() caller writes
// the whole header it asked for.
//
// Counters are one plain thread_local block per thread (same
// no-atomics argument). Every reader (the benchmark's windows,
// bench_micro, test_packet) reads the block of the thread that drove
// the traffic.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "common/bytes.hpp"

namespace rina {

/// Headroom reserved by default at the sending edge: enough for ~6
/// stacked DIFs (28-byte PCI each) plus the wire's 4-byte dif-id tag,
/// or for the baseline's transport + IP + tunnel headers.
inline constexpr std::size_t kDefaultHeadroom = 192;

/// Per-thread datapath counters (no atomics on the hot path).
struct PacketCounters {
  std::uint64_t allocs = 0;            // buffer acquisitions (pooled or fresh)
  std::uint64_t payload_copies = 0;    // events that memcpy'd payload bytes
  std::uint64_t cow_copies = 0;        // ...of which: shared-prepend copy-on-write
  std::uint64_t headroom_reallocs = 0; // ...of which: headroom exhausted
  std::uint64_t arena_hits = 0;        // ...allocs served from the free-list
  std::uint64_t arena_returns = 0;     // buffers recycled into the free-list

  void reset() { *this = PacketCounters{}; }
};

/// The calling thread's counters. In a single-threaded run this is the
/// process total.
inline PacketCounters& packet_counters() {
  static thread_local PacketCounters c;
  return c;
}

namespace detail {

/// The header of one buffer block; the buffer's bytes follow it.
struct PacketBuf {
  std::size_t min_off = 0;   // frontier: lowest offset any handle reached
  std::uint32_t refs = 1;    // plain count: one thread at a time
  std::uint8_t size_class = 0;

  std::uint8_t* bytes() noexcept {
    return reinterpret_cast<std::uint8_t*>(this) + sizeof(PacketBuf);
  }
};
static_assert(sizeof(PacketBuf) == 16, "the header is 16 bytes; its bytes stay aligned");

/// Pool of buffers keyed by power-of-two size class.
class PacketArena {
 public:
  static constexpr std::size_t kMinClass = 256;      // class 0
  static constexpr int kClasses = 9;                 // 256 .. 64 KiB
  static constexpr std::uint8_t kUnpooled = 0xFF;
  /// Per-class memory bound: lists stop growing past ~4 MiB each.
  static constexpr std::size_t kClassCapBytes = 4u << 20;

  /// One arena per thread: the hot path allocates and frees with zero
  /// synchronization. Buffers may be released on a different thread
  /// than they were acquired on (cross-shard frames) — they just join
  /// that thread's pool. A worker's arena destructor only frees
  /// buffers in its own free lists (refs == 0 by definition), never
  /// buffers still referenced elsewhere.
  static PacketArena& instance() {
    static thread_local PacketArena a;
    return a;
  }

  /// A buffer of at least `bytes` uninitialised bytes: its class's
  /// size, or exactly `bytes` (never pooled) past the largest class.
  PacketBuf* acquire(std::size_t bytes) {
    int cls = class_of(bytes);
    if (cls < 0) return make(bytes, kUnpooled);
    auto& list = free_[cls];
    if (list.empty()) return make(class_size(cls), static_cast<std::uint8_t>(cls));
    PacketBuf* b = list.back();
    list.pop_back();
    b->refs = 1;
    ++packet_counters().arena_hits;
    return b;
  }

  void release(PacketBuf* b) {
    if (b->size_class != kUnpooled) {
      auto& list = free_[b->size_class];
      if (list.size() < kClassCapBytes / class_size(b->size_class)) {
        list.push_back(b);
        ++packet_counters().arena_returns;
        return;
      }
    }
    ::operator delete(b);
  }

 private:
  PacketArena() = default;
  ~PacketArena() {
    for (auto& list : free_)
      for (PacketBuf* b : list) ::operator delete(b);
  }

  static constexpr std::size_t class_size(int cls) { return kMinClass << cls; }

  /// Smallest class whose size >= bytes; -1 when beyond the largest.
  static int class_of(std::size_t bytes) {
    std::size_t sz = kMinClass;
    for (int c = 0; c < kClasses; ++c, sz <<= 1)
      if (bytes <= sz) return c;
    return -1;
  }

  /// One block: the header, then `bytes` bytes.
  static PacketBuf* make(std::size_t bytes, std::uint8_t cls) {
    void* block = ::operator new(sizeof(PacketBuf) + bytes);
    return new (block) PacketBuf{0, 1, cls};
  }

  std::vector<PacketBuf*> free_[kClasses];
};

}  // namespace detail

class Packet {
 public:
  Packet() = default;

  /// Copy `b` into a buffer without headroom (tests and tools; the
  /// first prepend pays one more copy). Hot paths use with_headroom().
  Packet(const Bytes& b)  // NOLINT(google-explicit-constructor): edge copy
      : Packet(with_headroom(0, BytesView{b})) {}

  ~Packet() { reset(); }

  Packet(const Packet& o) noexcept : buf_(o.buf_), off_(o.off_), len_(o.len_) {
    if (buf_ != nullptr) ++buf_->refs;
  }
  Packet& operator=(const Packet& o) noexcept {
    if (this != &o) {
      if (o.buf_ != nullptr) ++o.buf_->refs;  // before reset: self-buffer safe
      reset();
      buf_ = o.buf_;
      off_ = o.off_;
      len_ = o.len_;
    }
    return *this;
  }
  Packet(Packet&& o) noexcept : buf_(o.buf_), off_(o.off_), len_(o.len_) {
    o.buf_ = nullptr;
    o.off_ = o.len_ = 0;
  }
  Packet& operator=(Packet&& o) noexcept {
    if (this != &o) {
      reset();
      buf_ = o.buf_;
      off_ = o.off_;
      len_ = o.len_;
      o.buf_ = nullptr;
      o.off_ = o.len_ = 0;
    }
    return *this;
  }

  /// One allocation with `headroom` writable bytes in front of a copy of
  /// `payload`. This copy-in is the single per-SDU copy of the send path.
  static Packet with_headroom(std::size_t headroom, BytesView payload) {
    Packet p;
    p.buf_ = detail::PacketArena::instance().acquire(headroom + payload.size());
    if (!payload.empty())
      std::memcpy(p.buf_->bytes() + headroom, payload.data(), payload.size());
    p.buf_->min_off = headroom;
    p.off_ = headroom;
    p.len_ = payload.size();
    auto& c = packet_counters();
    ++c.allocs;
    if (!payload.empty()) ++c.payload_copies;
    return p;
  }

  /// Explicit cheap handle copy (refcount bump, zero bytes moved).
  [[nodiscard]] Packet share() const { return *this; }

  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return buf_ != nullptr ? buf_->bytes() + off_ : nullptr;
  }
  [[nodiscard]] BytesView view() const noexcept { return BytesView{data(), len_}; }
  operator BytesView() const noexcept { return view(); }  // NOLINT: read adaptor
  std::uint8_t operator[](std::size_t i) const noexcept { return data()[i]; }

  [[nodiscard]] std::size_t headroom() const noexcept {
    return buf_ != nullptr ? off_ : 0;
  }
  [[nodiscard]] bool unique() const noexcept {
    return buf_ != nullptr && buf_->refs == 1;
  }

  /// Grow the view backward by n bytes and return the write pointer for
  /// the new front (the caller fills in its header). In place when safe
  /// under the frontier rule; otherwise copies into a fresh buffer with
  /// regenerated headroom (counted), so it never fails.
  std::uint8_t* prepend(std::size_t n) {
    auto& c = packet_counters();
    if (buf_ == nullptr) {
      std::size_t hr = n > kDefaultHeadroom ? n : kDefaultHeadroom;
      buf_ = detail::PacketArena::instance().acquire(hr);
      buf_->min_off = hr;
      off_ = hr;
      len_ = 0;
      ++c.allocs;
    }
    bool have_room = off_ >= n;
    bool exclusive = buf_->refs == 1 || off_ == buf_->min_off;
    if (!have_room || !exclusive) {
      if (!have_room)
        ++c.headroom_reallocs;
      else
        ++c.cow_copies;
      unshare(n);
    }
    off_ -= n;
    len_ += n;
    buf_->min_off = off_;
    return buf_->bytes() + off_;
  }

  /// Drop n bytes from the front (layer peels its header off in place).
  void pull(std::size_t n) {
    if (n > len_) n = len_;
    off_ += n;
    len_ -= n;
  }

  /// Exact rollback of an immediately-preceding prepend(n) on this
  /// handle, with no copies taken in between (the caller guarantees
  /// that). Unlike pull(), this also restores the frontier, so a later
  /// retry of the same prepend stays in place instead of looking like a
  /// foreign descent and paying a copy-on-write. Used by transmit paths
  /// that tag a frame, fail with backpressure, and must hand the
  /// untagged frame back to the retry queue.
  void unprepend(std::size_t n) {
    if (buf_ == nullptr || n > len_ || off_ != buf_->min_off) {
      pull(n);  // contract violated: fall back to the always-safe drop
      return;
    }
    off_ += n;
    len_ -= n;
    // Safe: under the contract the bytes below off_ were written by the
    // prepend being undone — either in place (pre-prepend min_off was
    // exactly off_) or into a fresh exclusive buffer.
    buf_->min_off = off_;
  }

  /// Drop n bytes from the tail.
  void trim(std::size_t n) {
    if (n > len_) n = len_;
    len_ -= n;
  }

  /// Copy the current view into a fresh Bytes.
  [[nodiscard]] Bytes to_bytes() const { return view().to_bytes(); }

  /// Copy the view out at the app edge and drop this handle.
  [[nodiscard]] Bytes take_bytes() && {
    if (buf_ == nullptr) return {};
    ++packet_counters().payload_copies;
    Bytes out = to_bytes();
    reset();
    return out;
  }

  friend bool operator==(const Packet& a, const Packet& b) {
    if (a.len_ != b.len_) return false;
    return a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0;
  }
  friend bool operator==(const Packet& a, const Bytes& b) {
    if (a.len_ != b.size()) return false;
    return a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0;
  }
  friend bool operator==(const Bytes& a, const Packet& b) { return b == a; }

 private:
  /// Copy the current view into a private buffer with at least
  /// max(need, kDefaultHeadroom) bytes of headroom.
  void unshare(std::size_t need) {
    std::size_t hr = need > kDefaultHeadroom ? need : kDefaultHeadroom;
    detail::PacketBuf* fresh =
        detail::PacketArena::instance().acquire(hr + len_);
    if (len_ != 0)
      std::memcpy(fresh->bytes() + hr, buf_->bytes() + off_, len_);
    fresh->min_off = hr;
    release();
    buf_ = fresh;
    off_ = hr;
    auto& c = packet_counters();
    ++c.allocs;
    if (len_ != 0) ++c.payload_copies;
  }

  void release() noexcept {
    if (buf_ != nullptr && --buf_->refs == 0)
      detail::PacketArena::instance().release(buf_);
  }

  void reset() noexcept {
    release();
    buf_ = nullptr;
    off_ = len_ = 0;
  }

  detail::PacketBuf* buf_ = nullptr;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace rina
