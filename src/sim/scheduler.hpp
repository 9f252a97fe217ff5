// scheduler.hpp — deterministic discrete-event loop on a hierarchical
// timing wheel.
//
// The event store is a 7-level × 256-slot hashed timing wheel (tick
// granularity 2^10 ns ≈ 1 µs). Seven 8-bit levels cover every tick a
// SimTime can hold (INT64_MAX >> 10 needs 53 bits), so no event needs a
// second store however far ahead it is. Events whose tick the wheel
// cursor has reached sit in a small binary heap ("due heap") keyed by
// their exact (time, insertion seq), so the firing order is *identical*
// to the classic single-heap scheduler: earliest time first, ties break
// on insertion order, and sub-tick time differences still order
// correctly. A run stays a pure function of the event program and the
// seeds — the property every bench leans on for reproducible tables.
//
// What the wheel buys over the single heap:
//   - schedule is O(1) (slot append) instead of O(log n);
//   - cancel is O(1) (unlink from a doubly-linked slot chain) instead of
//     impossible — which is the API story: schedule_* returns a
//     move-only `Timer` handle that cancels on destruction, can
//     `rearm()` in place without reallocating its closure, and makes the
//     weak-alive-token capture-and-check idiom obsolete;
//   - idle regions are skipped via per-level occupancy bitmaps rather
//     than popped one heap node at a time.
//
// Nodes live in fixed 256-node pages that never move: growth appends a
// page and copies no node or closure, so a Node& stays valid while a
// callback schedules. Free nodes chain through their own `next` field
// (LIFO), so cancelling or destroying a Timer never allocates. A node
// is one 64-byte cache line: its closure is a 24-byte `Callback` that
// keeps closures of up to 16 bytes (a `this` plus an index, or one
// shared_ptr) inline and boxes larger ones on the heap.
//
// A node is retired by its generation. Freeing or rearming one bumps
// `gen`, which makes every handle and due-heap entry that names the old
// generation stale: a cancelled node goes back to the free list at
// once wherever it sits, a rearmed one is re-placed in its own node,
// and the due heap pops stale entries as they surface. The one node
// that waits to be freed is a periodic cancelled by its own callback,
// which fire_next frees when the callback returns.
//
// Timer handle contract (see README for the prose version):
//   - `Timer t = sched.schedule_after(d, fn)` — owns the pending event.
//     Destroying or assigning over `t` cancels it; `t.cancel()` is O(1)
//     and idempotent; `t.rearm(d)` / `t.rearm_at(tp)` retarget a
//     still-armed timer in its own node, reusing its stored closure (no
//     allocation).
//   - After the event fires, the handle is stale: armed() is false and
//     cancel()/rearm() are no-ops. Re-arming from inside the callback is
//     done by assigning the member handle a fresh schedule_* result (the
//     fired node was already released, so no self-cancel hazard).
//   - `periodic(interval, fn)` refires every interval until the handle
//     is cancelled/destroyed; cancelling from inside the callback stops
//     the series. rearm() of a periodic mid-callback is rejected.
//   - `post_at/post_after` are fire-and-forget (no handle, not
//     cancellable) for events whose lifetime provably exceeds the
//     scheduler call — sim-internal plumbing and tests.
//   - Handles may outlive the Scheduler only during its destruction
//     (members of the same Network torn down after it schedule-wise);
//     a tearing_down flag makes their destructors no-ops then.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace rina::sim {

class Scheduler;

/// Move-only `void()` callable in 24 bytes: a 16-byte buffer and a
/// pointer to a static table of operations for the stored closure's
/// type. A closure of up to 16 bytes that moves without throwing lives
/// in the buffer; any other is boxed on the heap and the buffer holds
/// its pointer. Moving a boxed or trivially copyable closure copies the
/// buffer's bytes; only an inline closure with a non-trivial move (a
/// captured shared_ptr, say) goes through the table.
class Callback {
 public:
  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // implicit: callers pass lambdas
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      D* boxed = new D(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof boxed);
    }
    ops_ = &kOps<D>;
  }

  Callback(Callback&& o) noexcept : ops_(o.ops_) { take(o); }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      take(o);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Destroy the stored closure, if any. The callable is empty before
  /// the closure's destructor runs, so code in that destructor sees it
  /// empty.
  void reset() noexcept {
    const Ops* ops = ops_;
    ops_ = nullptr;
    if (ops != nullptr && ops->destroy != nullptr) ops->destroy(buf_);
  }

  void operator()() { ops_->call(buf_); }

 private:
  struct Ops {
    void (*call)(void* buf);
    // Move-construct the closure at dst from the one at src and destroy
    // src's. Null when a byte copy does both.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;  // null: nothing to destroy
  };

  static constexpr std::size_t kBufBytes = 16;

  template <typename D>
  static constexpr bool kInline = sizeof(D) <= kBufBytes &&
                                  alignof(D) <= alignof(void*) &&
                                  std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D* inline_ptr(void* buf) noexcept {
    return std::launder(static_cast<D*>(buf));
  }
  template <typename D>
  static D* boxed_ptr(void* buf) noexcept {
    D* p = nullptr;
    std::memcpy(&p, buf, sizeof p);
    return p;
  }

  template <typename D>
  static constexpr Ops make_ops() noexcept {
    if constexpr (!kInline<D>) {
      return Ops{[](void* b) { (*boxed_ptr<D>(b))(); }, nullptr,
                 [](void* b) noexcept { delete boxed_ptr<D>(b); }};
    } else if constexpr (std::is_trivially_copyable_v<D>) {
      return Ops{[](void* b) { (*inline_ptr<D>(b))(); }, nullptr, nullptr};
    } else {
      return Ops{[](void* b) { (*inline_ptr<D>(b))(); },
                 [](void* dst, void* src) noexcept {
                   D* from = inline_ptr<D>(src);
                   ::new (dst) D(std::move(*from));
                   from->~D();
                 },
                 [](void* b) noexcept { inline_ptr<D>(b)->~D(); }};
    }
  }
  template <typename D>
  static constexpr Ops kOps = make_ops<D>();

  /// Move o's closure into this buffer (ops_ already copied from o).
  void take(Callback& o) noexcept {
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr)
      ops_->relocate(buf_, o.buf_);
    else
      std::memcpy(buf_, o.buf_, kBufBytes);
    o.ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kBufBytes];
  const Ops* ops_ = nullptr;
};
static_assert(sizeof(Callback) == 24);

/// Move-only handle to a pending event. Destruction cancels. See the
/// contract in the file header.
class Timer {
 public:
  Timer() = default;
  Timer(Timer&& o) noexcept : sched_(o.sched_), node_(o.node_), gen_(o.gen_) {
    o.sched_ = nullptr;
  }
  Timer& operator=(Timer&& o) noexcept {
    if (this != &o) {
      cancel();
      sched_ = o.sched_;
      node_ = o.node_;
      gen_ = o.gen_;
      o.sched_ = nullptr;
    }
    return *this;
  }
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  inline void cancel();
  [[nodiscard]] inline bool armed() const;
  /// Retarget a still-armed timer to now+delay (resp. absolute t),
  /// reusing the stored closure. Returns false (and does nothing) if the
  /// timer already fired, was cancelled, or is mid-callback.
  inline bool rearm(SimTime delay);
  inline bool rearm_at(SimTime t);

 private:
  friend class Scheduler;
  Timer(Scheduler* s, std::uint32_t node, std::uint32_t gen)
      : sched_(s), node_(node), gen_(gen) {}

  Scheduler* sched_ = nullptr;
  std::uint32_t node_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  using Fn = Callback;

  Scheduler() {
    for (auto& level : slots_)
      for (auto& head : level) head = kNil;
  }
  ~Scheduler() { tearing_down_ = true; }
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// One-shot at absolute time t (clamped to now). The returned handle
  /// owns the event; discarding it cancels immediately.
  [[nodiscard]] Timer schedule_at(SimTime t, Fn fn) {
    std::uint32_t i = new_node(clamp(t), 0, std::move(fn));
    place(i);
    return Timer{this, i, node(i).gen};
  }

  [[nodiscard]] Timer schedule_after(SimTime delay, Fn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Draw a tie-break sequence number from the same stream schedule_*
  /// consumes, without creating an event. Paired with schedule_at_seq:
  /// a caller that decides the order of several future events *now* but
  /// arms their timers lazily (one armed timer over a FIFO is the Link
  /// pattern) reserves each event's seq at decision time, so equal-time
  /// firings run in decision order — exactly as if every event had been
  /// scheduled eagerly at that moment.
  [[nodiscard]] std::uint64_t reserve_seq() noexcept { return seq_++; }

  /// One-shot at absolute t with a caller-reserved seq (from
  /// reserve_seq). The seq only breaks ties among equal-time events;
  /// arming order is free.
  [[nodiscard]] Timer schedule_at_seq(SimTime t, std::uint64_t seq, Fn fn) {
    std::uint32_t i = new_node(clamp(t), 0, std::move(fn));
    --seq_;             // undo new_node's draw: this event's seq was
    node(i).seq = seq;  // reserved earlier; the stream must not shift
    place(i);
    return Timer{this, i, node(i).gen};
  }

  /// Refires every `interval` (first firing at now+interval) until the
  /// handle is cancelled. The closure is stored once and reused.
  [[nodiscard]] Timer periodic(SimTime interval, Fn fn) {
    std::int64_t iv = interval.ns > 0 ? interval.ns : 1;
    std::uint32_t i =
        new_node(clamp(now_ + interval), iv, std::move(fn));
    place(i);
    return Timer{this, i, node(i).gen};
  }

  /// Fire-and-forget: no handle, not cancellable. For events that are
  /// safe to run regardless of object lifetimes.
  void post_at(SimTime t, Fn fn) {
    place(new_node(clamp(t), 0, std::move(fn)));
  }
  void post_after(SimTime delay, Fn fn) { post_at(now_ + delay, std::move(fn)); }

  /// Run until the event queue drains. (Never returns while a periodic
  /// timer is armed.)
  void run() {
    while (fire_next(SimTime{kMaxNs})) {
    }
  }

  /// Run all events with time <= t, then advance now to t. A drained
  /// queue still leaves now() == t, consistent with run_for.
  void run_until(SimTime t) {
    while (fire_next(t)) {
    }
    if (now_ < t) now_ = t;
  }

  void run_for(SimTime d) { run_until(now_ + d); }

  /// Run events until `pred()` holds or the clock would pass `deadline`.
  /// Returns pred()'s final value. pred can only change when an event
  /// runs, so it is evaluated once on entry and then only after each
  /// fired event — the executed-event count is the dirty tick; idle
  /// clock advances never re-evaluate it.
  template <typename Pred>
  bool run_until_pred(Pred&& pred, SimTime deadline) {
    if (pred()) return true;
    while (fire_next(deadline)) {
      if (pred()) return true;
    }
    if (now_ < deadline) now_ = deadline;
    return pred();
  }

  /// Pop and run the next event. False if the queue is empty.
  bool step() { return fire_next(SimTime{kMaxNs}); }

  /// Count of armed events (wheel + due heap).
  [[nodiscard]] std::size_t pending() const noexcept {
    return wheel_live_ + due_live_;
  }

  /// Total events fired since construction — the dirty tick callers can
  /// compare across calls to detect "did anything run".
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  friend class Timer;

  static constexpr int kGranularityShift = 10;  // 1 tick = 1024 ns
  static constexpr int kLevelShift = 8;         // 256 slots per level
  static constexpr int kLevels = 7;             // 56 bits: any SimTime's tick
  static constexpr std::uint32_t kSlots = 1u << kLevelShift;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::int64_t kMaxNs = INT64_MAX;
  static_assert(kLevels * kLevelShift >= 63 - kGranularityShift,
                "the wheel spans every non-negative SimTime");
  // 256 nodes (16 KiB) a page: larger pages raise the peak RSS of runs
  // whose whole pool fits in one.
  static constexpr int kPageShift = 8;
  static constexpr std::uint32_t kPageNodes = 1u << kPageShift;

  // Where an armed node is. A free node's loc is meaningless: its
  // generation has moved past every handle and due entry.
  enum class Loc : std::uint8_t { wheel, due, executing };

  struct alignas(64) Node {
    SimTime time{};
    std::uint64_t seq = 0;
    std::int64_t interval_ns = 0;  // > 0: periodic
    std::uint32_t next = kNil;     // wheel slot chain (doubly linked),
                                   // or the free list while free
    std::uint32_t prev = kNil;
    std::uint32_t gen = 0;
    std::uint8_t level = 0;
    std::uint8_t slot = 0;
    Loc loc = Loc::wheel;
    Fn fn;
  };
  static_assert(sizeof(Node) == 64, "a pending timer is one cache line");

  struct DueEnt {
    std::int64_t ns;
    std::uint64_t seq;
    std::uint32_t idx;
    std::uint32_t gen;
  };
  /// Max-heap comparator surfacing the *earliest* (time, seq) — same
  /// tie-break contract as the old single heap.
  struct Later {
    bool operator()(const DueEnt& a, const DueEnt& b) const noexcept {
      if (a.ns != b.ns) return a.ns > b.ns;
      return a.seq > b.seq;
    }
  };

  SimTime clamp(SimTime t) const noexcept { return t < now_ ? now_ : t; }

  static std::uint64_t tick_of(SimTime t) noexcept {
    return static_cast<std::uint64_t>(t.ns) >> kGranularityShift;
  }

  Node& node(std::uint32_t i) noexcept {
    return pool_[i >> kPageShift][i & (kPageNodes - 1)];
  }
  const Node& node(std::uint32_t i) const noexcept {
    return pool_[i >> kPageShift][i & (kPageNodes - 1)];
  }

  std::uint32_t new_node(SimTime t, std::int64_t interval, Fn fn) {
    std::uint32_t i = free_head_;
    if (i != kNil) {
      free_head_ = node(i).next;
    } else {
      i = pool_used_++;
      if ((i & (kPageNodes - 1)) == 0)
        pool_.push_back(std::make_unique<Node[]>(kPageNodes));
    }
    Node& n = node(i);
    n.time = t;
    n.seq = seq_++;
    n.interval_ns = interval;
    n.fn = std::move(fn);
    return i;
  }

  void free_node(std::uint32_t i) {
    Node& n = node(i);
    ++n.gen;  // stale first: the closure's destructor may touch its handle
    n.fn.reset();
    n.next = free_head_;
    free_head_ = i;
  }

  /// File an armed node into the due heap or the wheel, by its tick's
  /// relation to the wheel cursor. The level is the highest 8-bit digit
  /// in which the tick differs from the cursor, so a slot only ever
  /// holds ticks of one wheel revolution and harvesting a level-0 slot
  /// takes everything in it.
  void place(std::uint32_t i) {
    Node& n = node(i);
    std::uint64_t tk = tick_of(n.time);
    if (tk <= tick_) {
      n.loc = Loc::due;
      ++due_live_;
      due_.push_back(DueEnt{n.time.ns, n.seq, i, n.gen});
      std::push_heap(due_.begin(), due_.end(), Later{});
      return;
    }
    const int level = (63 - __builtin_clzll(tk ^ tick_)) / kLevelShift;
    auto slot =
        static_cast<std::uint32_t>((tk >> (level * kLevelShift)) & (kSlots - 1));
    n.loc = Loc::wheel;
    n.level = static_cast<std::uint8_t>(level);
    n.slot = static_cast<std::uint8_t>(slot);
    n.prev = kNil;
    n.next = slots_[level][slot];
    if (n.next != kNil) node(n.next).prev = i;
    slots_[level][slot] = i;
    bitmap_[level][slot >> 6] |= 1ull << (slot & 63);
    ++wheel_live_;
  }

  void unlink(std::uint32_t i) {
    Node& n = node(i);
    if (n.prev != kNil)
      node(n.prev).next = n.next;
    else
      slots_[n.level][n.slot] = n.next;
    if (n.next != kNil) node(n.next).prev = n.prev;
    if (slots_[n.level][n.slot] == kNil)
      bitmap_[n.level][n.slot >> 6] &= ~(1ull << (n.slot & 63));
    n.prev = n.next = kNil;
  }

  /// Take an armed, not-executing node out of the live counts, and a
  /// wheel node out of its slot chain. A due node's heap entry stays
  /// behind; the caller's generation bump makes it stale.
  void detach(std::uint32_t i) {
    if (node(i).loc == Loc::wheel) {
      unlink(i);
      --wheel_live_;
    } else {
      --due_live_;
    }
  }

  /// First occupied slot index >= from at `level`, or -1.
  int next_occupied(int level, std::uint32_t from) const {
    if (from >= kSlots) return -1;
    std::uint32_t word = from >> 6;
    std::uint64_t bits = bitmap_[level][word] & (~0ull << (from & 63));
    for (;;) {
      if (bits != 0)
        return static_cast<int>((word << 6) +
                                static_cast<std::uint32_t>(__builtin_ctzll(bits)));
      if (++word >= kSlots / 64) return -1;
      bits = bitmap_[level][word];
    }
  }

  /// Move every node of level-0 slot s into the due heap. Appends the
  /// whole chain first and heapifies once: a slot often holds a batch of
  /// same-tick events (aligned periodic timers), and n appends + one
  /// O(n) make_heap beat n O(log n) sifts. Pop order is unaffected —
  /// (ns, seq) is a total order, so every pop yields the unique minimum
  /// regardless of the heap's internal layout.
  void harvest(std::uint32_t s) {
    std::uint32_t i = slots_[0][s];
    slots_[0][s] = kNil;
    bitmap_[0][s >> 6] &= ~(1ull << (s & 63));
    std::size_t appended = 0;
    while (i != kNil) {
      Node& n = node(i);
      std::uint32_t next = n.next;
      n.prev = n.next = kNil;
      --wheel_live_;
      n.loc = Loc::due;
      ++due_live_;
      due_.push_back(DueEnt{n.time.ns, n.seq, i, n.gen});
      ++appended;
      i = next;
    }
    if (appended == 1)
      std::push_heap(due_.begin(), due_.end(), Later{});
    else if (appended > 1)
      std::make_heap(due_.begin(), due_.end(), Later{});
  }

  /// Redistribute a level>=1 slot downward after the cursor entered its
  /// span. Nodes re-place by the (advanced) cursor: lower level or due.
  void cascade(int level, std::uint32_t s) {
    std::uint32_t i = slots_[level][s];
    slots_[level][s] = kNil;
    bitmap_[level][s >> 6] &= ~(1ull << (s & 63));
    while (i != kNil) {
      std::uint32_t next = node(i).next;
      node(i).prev = node(i).next = kNil;
      --wheel_live_;
      place(i);
      i = next;
    }
  }

  /// Pop the entries of freed or rearmed nodes (whose generation moved
  /// on) off the top of the due heap.
  void prune_due() {
    while (!due_.empty() && node(due_.front().idx).gen != due_.front().gen) {
      std::pop_heap(due_.begin(), due_.end(), Later{});
      due_.pop_back();
    }
  }

  /// Advance the wheel cursor (never past limit_tk) until the due heap
  /// holds a live event, skipping empty regions via the bitmaps.
  /// Returns false when nothing with tick <= limit_tk exists. Called
  /// with a live wheel node, and every pass keeps one: a harvest or a
  /// cascade into the due heap returns, and any other cascade only
  /// moves nodes down the wheel.
  bool refill_due(std::uint64_t limit_tk) {
    for (;;) {
      // The cursor may already sit at/past this call's limit (a previous
      // run advanced it further): everything in the wheel has tick >
      // tick_ >= limit_tk, so nothing can be due and the cursor must not
      // move backward.
      if (tick_ >= limit_tk) return false;
      int s0 = next_occupied(0, static_cast<std::uint32_t>(tick_ & (kSlots - 1)));
      if (s0 >= 0) {
        std::uint64_t cand = (tick_ & ~std::uint64_t{kSlots - 1}) |
                             static_cast<std::uint64_t>(s0);
        if (cand > limit_tk) {
          tick_ = limit_tk;
          return false;
        }
        tick_ = cand;
        harvest(static_cast<std::uint32_t>(s0));
        return true;
      }
      // Level-0 window exhausted: find the next occupied higher-level
      // slot, move the cursor to the *start* of its span, cascade it,
      // and retry at level 0.
      bool advanced = false;
      for (int level = 1; level < kLevels; ++level) {
        std::uint32_t cur = static_cast<std::uint32_t>(
            (tick_ >> (level * kLevelShift)) & (kSlots - 1));
        int s = next_occupied(level, cur + 1);
        if (s < 0) continue;
        std::uint64_t span = std::uint64_t{1} << (level * kLevelShift);
        std::uint64_t base = tick_ >> ((level + 1) * kLevelShift)
                                 << ((level + 1) * kLevelShift);
        std::uint64_t cand = base + static_cast<std::uint64_t>(s) * span;
        if (cand > limit_tk) {
          tick_ = limit_tk;
          return false;
        }
        tick_ = cand;
        cascade(level, static_cast<std::uint32_t>(s));
        // The cascade may have re-placed nodes of the entered span
        // straight into the due heap (tick == cursor). They are this
        // refill's answer: returning without this check would strand
        // them past their time whenever the NEXT occupied slot lies
        // beyond limit_tk — a silently late event in a bounded run.
        if (due_live_ > 0) return true;
        advanced = true;
        break;
      }
      if (!advanced) {
        // A live wheel node yet nothing ahead at any level: unreachable
        // by construction; stop at the limit defensively.
        tick_ = limit_tk;
        return false;
      }
    }
  }

  /// True iff a live event with time <= limit is at the top of due_.
  bool advance_due(std::int64_t limit_ns) {
    for (;;) {
      prune_due();
      if (!due_.empty()) return due_.front().ns <= limit_ns;
      if (wheel_live_ == 0 ||
          !refill_due(static_cast<std::uint64_t>(limit_ns) >> kGranularityShift))
        return false;
    }
  }

  /// Fire the earliest event if its time <= limit. The heart of every
  /// run_* loop.
  bool fire_next(SimTime limit) {
    if (!advance_due(limit.ns)) return false;
    std::pop_heap(due_.begin(), due_.end(), Later{});
    DueEnt e = due_.back();
    due_.pop_back();
    --due_live_;
    if (now_.ns < e.ns) now_ = SimTime{e.ns};
    ++executed_;
    Node& n = node(e.idx);
    if (n.interval_ns > 0) {
      // Periodic: the closure runs in place. Its node is neither freed
      // nor reused until the callback returns (a cancel only retires its
      // generation), and pages never move.
      n.loc = Loc::executing;
      n.fn();
      if (n.gen == e.gen) {  // not cancelled mid-callback
        n.time = now_ + SimTime{n.interval_ns};
        n.seq = seq_++;
        place(e.idx);
      } else {
        free_node(e.idx);
      }
    } else {
      Fn f = std::move(n.fn);
      free_node(e.idx);  // handle goes stale *before* the callback runs
      f();
    }
    return true;
  }

  // ---- Timer support -------------------------------------------------

  bool node_armed(std::uint32_t i, std::uint32_t gen) const {
    return node(i).gen == gen;
  }

  void cancel_node(std::uint32_t i, std::uint32_t gen) {
    if (tearing_down_ || !node_armed(i, gen)) return;
    if (node(i).loc == Loc::executing) {
      // A periodic cancelling itself mid-callback: its closure is still
      // running, so only retire the generation; fire_next frees the
      // node on return.
      ++node(i).gen;
      return;
    }
    detach(i);
    free_node(i);
  }

  /// Retarget a still-armed, not-currently-firing timer in its own node,
  /// reusing its stored closure, under a new generation that the handle
  /// follows.
  bool rearm_node(std::uint32_t i, std::uint32_t* genp, SimTime t) {
    if (tearing_down_ || !node_armed(i, *genp)) return false;
    Node& n = node(i);
    if (n.loc == Loc::executing) return false;
    detach(i);
    n.time = clamp(t);
    n.seq = seq_++;
    *genp = ++n.gen;
    place(i);
    return true;
  }

  bool tearing_down_ = false;
  std::vector<std::unique_ptr<Node[]>> pool_;  // pages of kPageNodes
  std::uint32_t pool_used_ = 0;  // nodes ever handed out: indices below it
  std::uint32_t free_head_ = kNil;  // LIFO free list through Node::next
  std::uint32_t slots_[kLevels][kSlots];
  std::uint64_t bitmap_[kLevels][kSlots / 64] = {};
  std::vector<DueEnt> due_;
  std::uint64_t tick_ = 0;  // wheel cursor: slots <= tick_ are harvested
  std::size_t wheel_live_ = 0;
  std::size_t due_live_ = 0;
  SimTime now_{};
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

inline void Timer::cancel() {
  if (sched_ != nullptr) {
    sched_->cancel_node(node_, gen_);
    sched_ = nullptr;
  }
}

inline bool Timer::armed() const {
  return sched_ != nullptr && sched_->node_armed(node_, gen_);
}

inline bool Timer::rearm(SimTime delay) {
  if (sched_ == nullptr) return false;
  return sched_->rearm_node(node_, &gen_, sched_->now() + delay);
}

inline bool Timer::rearm_at(SimTime t) {
  if (sched_ == nullptr) return false;
  return sched_->rearm_node(node_, &gen_, t);
}

}  // namespace rina::sim
