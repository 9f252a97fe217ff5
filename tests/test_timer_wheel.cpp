// test_timer_wheel — the timing-wheel scheduler against a reference
// single-heap model on randomized programs, plus the Timer handle
// contract: cancel before/at/after fire, cancel-on-destroy, rearm on
// every residency path (wheel levels / due heap), the cascade from
// level 4 (hours ahead), the top levels up to SimTime{INT64_MAX}, and
// periodic cadence. The node store is paged: destroying handles on
// every residency allocates nothing, arming, rearming and cancelling
// hours-ahead timers allocates nothing, a cancelled or rearmed due-heap
// node is reused at once, and a periodic whose callback appends pages
// keeps its cadence, the reference order and its self-cancel. Closures
// of up to 16 bytes live inside the node and schedule without
// allocating once the pool is warm; a boxed closure and a
// shared_ptr-capturing one each run and are destroyed exactly once on
// every path: fired, cancelled, rearmed out of the due heap and out of
// level 4, cancelled mid-callback, torn down with the scheduler.
//
// Residency note: sub-cases that pin an event's location (wheel level,
// due heap) each use a fresh Scheduler — a bounded run moves the wheel
// cursor to its bound, after which every event at or before the
// cursor's tick lands straight in the due heap.
#include "sim/scheduler.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "test_util.hpp"

// Every heap allocation in this process, for the zero-allocation check.
// Not inlined, so the compiler never pairs a caller's new with free().
static std::size_t g_allocs = 0;
// Over-aligned allocations: here, only the scheduler's node pages.
static std::size_t g_pages = 0;

__attribute__((noinline)) void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
// The node pages are 64-byte aligned, so they come through here.
__attribute__((noinline)) void* operator new(std::size_t n, std::align_val_t a) {
  ++g_allocs;
  ++g_pages;
  auto al = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(al, (n + al - 1) / al * al)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}

using namespace rina;

namespace {

// ---------------------------------------------------------------------
// Reference model: the classic single binary heap keyed (time, seq),
// exactly what src/sim/scheduler.hpp replaced. Identical firing order
// on identical programs is the wheel's core contract.
class RefSched {
 public:
  void schedule_at(std::int64_t ns, std::function<void()> fn) {
    heap_.push_back(Ev{ns < now_ ? now_ : ns, seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  void schedule_after(std::int64_t d, std::function<void()> fn) {
    schedule_at(now_ + d, std::move(fn));
  }
  void run() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      Ev e = std::move(heap_.back());
      heap_.pop_back();
      if (now_ < e.ns) now_ = e.ns;
      e.fn();
    }
  }

 private:
  struct Ev {
    std::int64_t ns;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.ns != b.ns) return a.ns > b.ns;
      return a.seq > b.seq;
    }
  };
  std::vector<Ev> heap_;
  std::uint64_t seq_ = 0;
  std::int64_t now_ = 0;
};

/// One generated event: when it is first scheduled, whether it is later
/// cancelled or rearmed, and an optional child it spawns when it fires.
struct GenEv {
  std::int64_t ns = 0;
  bool cancelled = false;
  std::int64_t rearm_ns = -1;  // >= 0: retargeted after initial placement
  int child = -1;              // index into the child table
  std::int64_t child_delta = 0;
};

/// Times drawn to cover every residency: sub-tick (due), level 0
/// (< 256 ticks ≈ 262 us), levels 1–3, and level 4 (> ~73 min).
std::int64_t draw_time(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> bucket(0, 5);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  switch (bucket(rng)) {
    case 0: return static_cast<std::int64_t>(u(rng) * 1e3);     // sub-tick
    case 1: return static_cast<std::int64_t>(u(rng) * 2e5);     // level 0
    case 2: return static_cast<std::int64_t>(u(rng) * 6e7);     // level 1
    case 3: return static_cast<std::int64_t>(u(rng) * 1.5e10);  // level 2
    case 4: return static_cast<std::int64_t>(u(rng) * 4e12);    // level 3
    default: return static_cast<std::int64_t>(5e12 + u(rng) * 1e14);  // level 4
  }
}

/// Times drawn to cover the top levels as well: sub-tick (due), a tick
/// whose highest set bit lies in any of the seven levels (levels 4–6 are
/// 73 minutes to 292 years ahead), and about one in nine exactly
/// SimTime{INT64_MAX}.
std::int64_t draw_any_time(std::mt19937_64& rng) {
  const int bucket = static_cast<int>(rng() % 8);
  if (bucket == 0) return static_cast<std::int64_t>(rng() % 1024);
  if (rng() % 8 == 0) return INT64_MAX;
  const int lo = 8 * (bucket - 1) + 10;     // ns bit at which the level starts
  const int hi = std::min(lo + 8, 63);      // ... and ends (exclusive)
  const std::uint64_t span = (std::uint64_t{1} << hi) - (std::uint64_t{1} << lo);
  return static_cast<std::int64_t>((std::uint64_t{1} << lo) + rng() % span);
}

/// Run one randomized program through both schedulers and demand the
/// identical firing sequence. Rearmed events re-enter the order as if
/// scheduled at the moment of the rearm (fresh seq), which the
/// reference reproduces by scheduling them after all initial events.
/// With `spawn`, some events schedule a child when they fire. Returns
/// the wheel's clock after its run() returned.
SimTime one_random_program(std::uint64_t seed,
                           std::int64_t (*draw)(std::mt19937_64&) = draw_time,
                           bool spawn = true) {
  std::mt19937_64 rng(seed);
  constexpr int kEvents = 400;
  std::uniform_real_distribution<double> u(0.0, 1.0);

  std::vector<GenEv> prog(kEvents);
  std::vector<GenEv> kids;
  for (int i = 0; i < kEvents; ++i) {
    prog[static_cast<std::size_t>(i)].ns = draw(rng);
    double roll = u(rng);
    if (roll < 0.15) {
      prog[static_cast<std::size_t>(i)].cancelled = true;
    } else if (roll < 0.30) {
      prog[static_cast<std::size_t>(i)].rearm_ns = draw(rng);
    } else if (spawn && roll < 0.45) {
      prog[static_cast<std::size_t>(i)].child = static_cast<int>(kids.size());
      prog[static_cast<std::size_t>(i)].child_delta = draw(rng) / 16 + 1;
      kids.push_back(GenEv{});
    }
  }
  auto ev_of = [&](int id) -> const GenEv& {
    return id < kEvents ? prog[static_cast<std::size_t>(id)]
                        : kids[static_cast<std::size_t>(id - kEvents)];
  };

  // Wheel run. Cancel via explicit cancel() for half the cancelled set
  // and handle destruction for the rest — same observable effect.
  std::vector<int> wheel_order;
  SimTime wheel_end{};
  {
    sim::Scheduler s;
    std::vector<sim::Timer> live;
    std::function<void(int)> fire = [&](int id) {
      wheel_order.push_back(id);
      const GenEv& ev = ev_of(id);
      if (ev.child >= 0) {
        int cid = kEvents + ev.child;
        s.post_after(SimTime{ev.child_delta}, [&fire, cid] { fire(cid); });
      }
    };
    for (int i = 0; i < kEvents; ++i) {
      const GenEv& ev = prog[static_cast<std::size_t>(i)];
      sim::Timer t = s.schedule_at(SimTime{ev.ns}, [&fire, i] { fire(i); });
      if (ev.cancelled) {
        if (i % 2 == 0) t.cancel();
        // else: t drops at end of iteration — cancel-on-destroy
      } else {
        live.push_back(std::move(t));
      }
    }
    // Retarget the rearm set; `live` holds the non-cancelled handles in
    // program order, so walk both in lockstep.
    std::size_t li = 0;
    for (int i = 0; i < kEvents; ++i) {
      const GenEv& ev = prog[static_cast<std::size_t>(i)];
      if (ev.cancelled) continue;
      if (ev.rearm_ns >= 0) CHECK(live[li].rearm_at(SimTime{ev.rearm_ns}));
      ++li;
    }
    s.run();
    CHECK(s.pending() == 0);
    wheel_end = s.now();
  }

  // Reference run: same program, same semantics.
  std::vector<int> ref_order;
  {
    RefSched s;
    std::function<void(int)> fire = [&](int id) {
      ref_order.push_back(id);
      const GenEv& ev = ev_of(id);
      if (ev.child >= 0) {
        int cid = kEvents + ev.child;
        s.schedule_after(ev.child_delta, [&fire, cid] { fire(cid); });
      }
    };
    for (int i = 0; i < kEvents; ++i) {
      const GenEv& ev = prog[static_cast<std::size_t>(i)];
      if (ev.cancelled || ev.rearm_ns >= 0) continue;
      s.schedule_at(ev.ns, [&fire, i] { fire(i); });
    }
    for (int i = 0; i < kEvents; ++i) {
      const GenEv& ev = prog[static_cast<std::size_t>(i)];
      if (!ev.cancelled && ev.rearm_ns >= 0)
        s.schedule_at(ev.rearm_ns, [&fire, i] { fire(i); });
    }
    s.run();
  }

  CHECK(wheel_order == ref_order);
  CHECK(!wheel_order.empty());
  return wheel_end;
}

void randomized_equivalence() {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull, 99991ull})
    one_random_program(seed);
}

// The top wheel levels: events up to SimTime{INT64_MAX}, mixed with
// near ones and cancelled or rearmed across levels, fire in the
// reference order, and run() returns with the clock at INT64_MAX. No
// event spawns a child, whose time could pass INT64_MAX.
void top_levels_fire_in_reference_order() {
  for (std::uint64_t seed : {3ull, 11ull, 2026ull})
    CHECK(one_random_program(seed, draw_any_time, /*spawn=*/false) ==
          SimTime{INT64_MAX});
}

// ---------------------------------------------------------------------

void cancel_before_fire() {
  sim::Scheduler s;
  int hits = 0;
  sim::Timer t = s.schedule_after(SimTime::from_ms(1), [&] { ++hits; });
  CHECK(t.armed());
  t.cancel();
  CHECK(!t.armed());
  t.cancel();  // idempotent
  s.run();
  CHECK(hits == 0);
  CHECK(s.pending() == 0);

  // Cancel-on-destroy and cancel-on-assign.
  {
    sim::Timer dead = s.schedule_after(SimTime::from_ms(1), [&] { ++hits; });
    (void)dead;
  }
  sim::Timer a = s.schedule_after(SimTime::from_ms(1), [&] { ++hits; });
  a = s.schedule_after(SimTime::from_ms(2), [&] { hits += 10; });  // first one dies
  s.run();
  CHECK(hits == 10);
}

void cancel_at_fire_time() {
  // An earlier same-time event cancels a later one: the tie-break says
  // the canceller runs first, so the victim must never fire.
  {
    sim::Scheduler s;
    int hits = 0;
    sim::Timer victim;
    s.post_after(SimTime::from_ms(5), [&] { victim.cancel(); });
    victim = s.schedule_after(SimTime::from_ms(5), [&] { ++hits; });
    s.run();
    CHECK(hits == 0);
  }
  // Reverse insertion order: the victim fires first — cancelling after
  // the fire, at the same instant, is a stale no-op.
  {
    sim::Scheduler s;
    int hits = 0;
    sim::Timer v2 = s.schedule_after(SimTime::from_ms(5), [&] { ++hits; });
    s.post_after(SimTime::from_ms(5), [&] {
      CHECK(!v2.armed());  // already fired this instant
      v2.cancel();         // no-op
    });
    s.run();
    CHECK(hits == 1);
  }
}

void cancel_after_fire() {
  sim::Scheduler s;
  int hits = 0;
  sim::Timer t = s.schedule_after(SimTime::from_ms(1), [&] { ++hits; });
  s.run();
  CHECK(hits == 1);
  CHECK(!t.armed());
  t.cancel();                            // stale handle: no-op
  CHECK(!t.rearm(SimTime::from_ms(1)));  // stale handle: refused
  s.run();
  CHECK(hits == 1);
}

void rearm_paths() {
  // Wheel-resident rearm: push later, then pull back in front.
  {
    sim::Scheduler s;
    std::vector<int> order;
    sim::Timer t = s.schedule_after(SimTime::from_ms(10), [&] { order.push_back(1); });
    CHECK(t.rearm(SimTime::from_ms(50)));
    sim::Timer u = s.schedule_after(SimTime::from_ms(20), [&] { order.push_back(2); });
    CHECK(t.rearm(SimTime::from_ms(5)));
    s.run();
    CHECK(order == (std::vector<int>{1, 2}));
  }
  // Due-resident rearm: a sub-tick target (< 1024 ns, cursor at 0)
  // lands straight in the due heap; retargeting from there leaves a
  // stale heap entry behind and must still work.
  {
    sim::Scheduler s;
    std::vector<int> order;
    sim::Timer d = s.schedule_at(SimTime{100}, [&] { order.push_back(3); });
    CHECK(d.rearm(SimTime::from_ms(1)));
    s.post_at(SimTime{200}, [&] { order.push_back(4); });
    s.run();
    CHECK(order == (std::vector<int>{4, 3}));
  }
  // Level-4 rearm: parked hours ahead, pulled back to milliseconds.
  {
    sim::Scheduler s;
    std::vector<int> order;
    sim::Timer o =
        s.schedule_after(SimTime::from_sec(3600 * 5), [&] { order.push_back(5); });
    CHECK(o.armed());
    CHECK(o.rearm(SimTime::from_ms(2)));
    s.run();
    CHECK(order == (std::vector<int>{5}));
    CHECK(s.now() < SimTime::from_sec(1));  // did NOT run out to 5 hours
  }
  // rearm consumes a fresh seq: it files behind a same-time event that
  // was scheduled after the original arm.
  {
    sim::Scheduler s;
    std::vector<int> order;
    sim::Timer r = s.schedule_after(SimTime::from_ms(1), [&] { order.push_back(6); });
    s.post_after(SimTime::from_ms(3), [&] { order.push_back(7); });
    CHECK(r.rearm(SimTime::from_ms(3)));
    s.run();
    CHECK(order == (std::vector<int>{7, 6}));
  }
}

void level4_cascade() {
  // Events hours ahead (past level 3's ~73 min) park in level 4 and
  // must still fire in (time, insertion) order as the cursor jumps; a
  // cancelled one leaves no firing and no pending residue.
  sim::Scheduler s;
  std::vector<int> order;
  const std::int64_t kHour = 3600LL * 1000 * 1000 * 1000;
  s.post_at(SimTime{5 * kHour}, [&] { order.push_back(5); });
  s.post_at(SimTime{2 * kHour}, [&] { order.push_back(2); });
  s.post_at(SimTime{2 * kHour}, [&] { order.push_back(22); });  // tie
  s.post_at(SimTime{9 * kHour}, [&] { order.push_back(9); });
  s.post_after(SimTime::from_ms(1), [&] { order.push_back(0); });
  sim::Timer t = s.schedule_at(SimTime{7 * kHour}, [&] { order.push_back(-1); });
  t.cancel();
  s.run();
  CHECK(order == (std::vector<int>{0, 2, 22, 5, 9}));
  CHECK(s.now() == SimTime{9 * kHour});
  CHECK(s.pending() == 0);
}

void periodic_cadence() {
  sim::Scheduler s;
  std::vector<std::int64_t> fires;
  sim::Timer p = s.periodic(SimTime::from_ms(10), [&] { fires.push_back(s.now().ns); });
  s.run_until(SimTime::from_ms(45));
  CHECK(fires.size() == 4);  // 10, 20, 30, 40 ms
  CHECK(fires[0] == SimTime::from_ms(10).ns);
  CHECK(fires[3] == SimTime::from_ms(40).ns);
  CHECK(p.armed());
  p.cancel();
  s.run_until(SimTime::from_ms(100));
  CHECK(fires.size() == 4);

  // Cancelling from inside the callback ends the series; a rearm from
  // inside the callback is rejected (the node is mid-flight).
  int n = 0;
  sim::Timer q;
  q = s.periodic(SimTime::from_ms(1), [&] {
    ++n;
    CHECK(!q.rearm(SimTime::from_ms(5)));
    if (n == 3) q.cancel();
  });
  s.run();
  CHECK(n == 3);
  CHECK(s.pending() == 0);
}

void counters_and_drain() {
  sim::Scheduler s;
  CHECK(s.pending() == 0);
  sim::Timer a = s.schedule_after(SimTime::from_ms(1), [] {});     // wheel
  sim::Timer b = s.schedule_after(SimTime::from_sec(9000), [] {});  // level 4
  s.post_at(SimTime{10}, [] {});                                    // due
  CHECK(s.pending() == 3);
  std::uint64_t before = s.executed();
  s.run_until(SimTime::from_ms(5));
  CHECK(s.executed() == before + 2);
  CHECK(s.pending() == 1);
  b.cancel();
  // run_until on a drained queue still advances the clock.
  s.run_until(SimTime::from_sec(1));
  CHECK(s.now() == SimTime::from_sec(1));
  CHECK(s.executed() == before + 2);
  (void)a;
}

// Regression: a bounded run_until must fire EVERY event at or before
// its bound. The refill_due cascade branch used to re-place an event
// sitting exactly on a coarse slot boundary into the due heap, keep
// scanning, hit the next occupied slot beyond the bound, and return
// "nothing due" with the live event stranded — it then fired a full
// run_* call late. Random times plus a bias onto coarse boundaries and
// a far-future event reproduce the exact shape.
void bounded_runs_fire_everything_due() {
  sim::Scheduler s;
  std::mt19937_64 rng(99);
  constexpr int kEvents = 2000;
  std::vector<std::int64_t> when(kEvents);
  std::vector<char> fired(kEvents, 0);
  for (int i = 0; i < kEvents; ++i) {
    auto ns = static_cast<std::int64_t>(rng() % 400000000ULL);  // < 400 ms
    if (i % 4 == 0) ns &= ~((std::int64_t{1} << 18) - 1);  // coarse boundary
    when[static_cast<std::size_t>(i)] = ns;
    s.post_at(SimTime{ns}, [&fired, i] { fired[static_cast<std::size_t>(i)] = 1; });
  }
  s.post_at(SimTime::from_sec(500), [] {});  // always beyond the bound
  int stranded = 0;
  for (std::int64_t t_ms = 1; t_ms <= 401; ++t_ms) {
    s.run_until(SimTime::from_ms(t_ms));
    for (int i = 0; i < kEvents; ++i) {
      if (when[static_cast<std::size_t>(i)] <= s.now().ns &&
          !fired[static_cast<std::size_t>(i)])
        ++stranded;
    }
  }
  CHECK(stranded == 0);
}

// Destroying handles never allocates, on any residency: a node goes
// straight back to the free list, wherever it sits, and a due node's
// heap entry goes stale and is popped by the drain; neither touches the
// heap. 5,000 handles span 20 pages.
void cancel_never_allocates() {
  constexpr int kTimers = 5000;
  sim::Scheduler s;
  std::vector<sim::Timer> handles;
  handles.reserve(kTimers);
  int fired = 0;
  for (int i = 0; i < kTimers; ++i) {
    SimTime t;
    switch (i % 3) {
      case 0: t = SimTime{i % 1000}; break;                 // due (sub-tick)
      case 1: t = SimTime::from_us(2 + i); break;           // wheel
      default: t = SimTime::from_sec(3600 * 5 + i); break;  // level 4
    }
    handles.push_back(s.schedule_at(t, [&fired] { ++fired; }));
  }
  CHECK(s.pending() == static_cast<std::size_t>(kTimers));
  const std::size_t before = g_allocs;
  handles.clear();
  s.run();  // pops the stale due entries
  CHECK(g_allocs == before);
  CHECK(fired == 0);
  CHECK(s.pending() == 0);
}

// Timers hours ahead are wheel nodes like any other (level 4): on a
// warm pool, arming, rearming and cancelling 500 of them 5–6 h ahead
// allocates nothing.
void far_future_timers_never_allocate() {
  constexpr int kTimers = 500;
  const std::int64_t k5h = SimTime::from_sec(5 * 3600).ns;
  const std::int64_t k7s = SimTime::from_sec(7).ns;
  sim::Scheduler s;
  std::vector<sim::Timer> handles;
  handles.reserve(kTimers);
  int fired = 0;
  auto round = [&] {
    for (int i = 0; i < kTimers; ++i)
      handles.push_back(
          s.schedule_at(SimTime{k5h + i * k7s}, [&fired] { ++fired; }));
    for (int i = 0; i < kTimers; ++i)
      CHECK(handles[static_cast<std::size_t>(i)].rearm_at(
          SimTime{k5h + (kTimers - i) * k7s}));
    CHECK(s.pending() == static_cast<std::size_t>(kTimers));
    handles.clear();
    CHECK(s.pending() == 0);
    s.run();
  };
  round();  // warm: the pool's pages
  const std::size_t before = g_allocs;
  round();
  CHECK(g_allocs == before);
  CHECK(fired == 0);
}

// A cancelled or rearmed due-heap node is reused at once; only its heap
// entry goes stale. Six rounds of 200 arms, rearms and cancels of
// due-heap residents, with no run between them to pop the stale
// entries, add no node page to a one-page pool. Each rearmed handle
// stays armed() and fires once, at its new time.
void due_heap_nodes_are_reused() {
  constexpr int kTimers = 200;
  struct Log {
    sim::Scheduler s;
    std::vector<std::int64_t> at = std::vector<std::int64_t>(kTimers, -1);
    int fires = 0;
  } log;
  sim::Scheduler& s = log.s;
  for (int i = 0; i < 256; ++i)
    s.post_after(SimTime::from_us(1 + i), [l = &log] { ++l->fires; });
  s.run();  // one page; the cursor sits at now's tick, so now is due
  log.fires = 0;
  std::vector<sim::Timer> handles;
  handles.reserve(kTimers);
  auto round = [&] {
    for (int i = 0; i < kTimers; ++i)
      handles.push_back(s.schedule_after(
          SimTime{0}, [l = &log, k = static_cast<std::size_t>(i)] {
            l->at[k] = l->s.now().ns;
            ++l->fires;
          }));
    for (int i = 0; i < kTimers; ++i) {  // to later ns of the same tick
      sim::Timer& t = handles[static_cast<std::size_t>(i)];
      CHECK(t.rearm(SimTime{1 + i}));
      CHECK(t.armed());
    }
  };
  const std::size_t pages = g_pages;
  for (int r = 0; r < 6; ++r) {
    round();
    handles.clear();
  }
  CHECK(g_pages == pages);
  CHECK(s.pending() == 0);
  const std::int64_t t0 = s.now().ns;
  round();
  s.run();
  CHECK(log.fires == kTimers);
  for (int i = 0; i < kTimers; ++i)
    CHECK(log.at[static_cast<std::size_t>(i)] == t0 + 1 + i);
  CHECK(g_pages == pages);
}

// A periodic that schedules more than a page of one-shots on each
// firing, cancels some of them at once and some at its next firing,
// and cancels itself on its last. Pages are appended while its closure
// runs in place. The closure (too large for std::function's inline
// buffer) reads its captures again after the pool grew and after the
// self-cancel, which a sanitizer build reports if the store moved the
// node or the cancel freed the closure. The firing order, the
// periodic's ticks included, must be the reference heap's.
void pool_grows_inside_callbacks() {
  constexpr int kFirings = 8;
  constexpr int kPerFiring = 300;  // > one 256-node page
  const std::int64_t kIv = SimTime::from_ms(1).ns;
  struct Shot {
    std::int64_t delta = 0;
    bool cancel_now = false;
    bool cancel_next = false;  // at the periodic's next firing
  };
  std::mt19937_64 rng(5);
  std::vector<std::vector<Shot>> plan(
      kFirings, std::vector<Shot>(static_cast<std::size_t>(kPerFiring)));
  for (int k = 0; k < kFirings; ++k) {
    for (Shot& sh : plan[static_cast<std::size_t>(k)]) {
      // Sub-tick (due), up to 8 ms (wheel), and whole-ms ties with the
      // periodic's own ticks.
      switch (rng() % 4) {
        case 0: sh.delta = static_cast<std::int64_t>(rng() % 1000); break;
        case 1: sh.delta = kIv * static_cast<std::int64_t>(rng() % 8); break;
        default: sh.delta = static_cast<std::int64_t>(rng() % 8000000); break;
      }
      sh.cancel_now = rng() % 8 == 0;
      // Only a shot still pending at the next firing can be cancelled
      // there; at an equal time the shot's older seq fires it first.
      sh.cancel_next = !sh.cancel_now && k + 1 < kFirings && sh.delta > kIv &&
                       rng() % 4 == 0;
    }
  }
  struct Spawner {
    const std::vector<std::vector<Shot>>* plan;
    sim::Scheduler s;
    sim::Timer self;
    std::vector<sim::Timer> shots;  // by id
    std::vector<int> order;         // one-shot ids; -1-k for tick k
    std::vector<std::int64_t> ticks;
    std::size_t peak_pending = 0;
    int returns = 0;

    void fire() {
      const int k = static_cast<int>(ticks.size());
      ticks.push_back(s.now().ns);
      order.push_back(-1 - k);
      const auto& mine = (*plan)[static_cast<std::size_t>(k)];
      for (std::size_t j = 0; j < mine.size(); ++j) {
        const int id = k * kPerFiring + static_cast<int>(j);
        shots.push_back(s.schedule_after(SimTime{mine[j].delta},
                                         [this, id] { order.push_back(id); }));
      }
      for (std::size_t j = 0; j < mine.size(); ++j)
        if (mine[j].cancel_now)
          shots[static_cast<std::size_t>(k * kPerFiring) + j].cancel();
      if (k > 0) {
        const auto& prev = (*plan)[static_cast<std::size_t>(k - 1)];
        for (std::size_t j = 0; j < prev.size(); ++j) {
          if (!prev[j].cancel_next) continue;
          sim::Timer& t = shots[static_cast<std::size_t>((k - 1) * kPerFiring) + j];
          CHECK(t.armed());
          t.cancel();
        }
      }
      peak_pending = std::max(peak_pending, s.pending());
    }
  };

  Spawner sp;
  sp.plan = &plan;
  sp.self = sp.s.periodic(SimTime{kIv}, [c = &sp, iv = kIv, last = kFirings] {
    c->fire();
    if (c->ticks.size() == static_cast<std::size_t>(last)) c->self.cancel();
    CHECK(c->s.now().ns % iv == 0);
    ++c->returns;
  });
  sp.s.run();
  CHECK(sp.s.pending() == 0);
  CHECK(!sp.self.armed());
  CHECK(sp.returns == kFirings);
  CHECK(sp.peak_pending > 2 * 256);  // a third page appended mid-callback
  CHECK(sp.ticks.size() == static_cast<std::size_t>(kFirings));
  for (int k = 0; k < static_cast<int>(sp.ticks.size()); ++k)
    CHECK(sp.ticks[static_cast<std::size_t>(k)] == (k + 1) * kIv);

  // The reference: the periodic as a closure that reschedules itself
  // after spawning, as the wheel re-places it after the callback.
  std::vector<int> ref_order;
  RefSched r;
  std::function<void(int)> tick = [&](int k) {
    ref_order.push_back(-1 - k);
    const auto& mine = plan[static_cast<std::size_t>(k)];
    for (std::size_t j = 0; j < mine.size(); ++j) {
      if (mine[j].cancel_now || mine[j].cancel_next) continue;
      const int id = k * kPerFiring + static_cast<int>(j);
      r.schedule_after(mine[j].delta, [&ref_order, id] { ref_order.push_back(id); });
    }
    if (k + 1 < kFirings) r.schedule_after(kIv, [&tick, k] { tick(k + 1); });
  };
  r.schedule_after(kIv, [&tick] { tick(0); });
  r.run();
  CHECK(sp.order == ref_order);
  CHECK(sp.order.size() > static_cast<std::size_t>(kFirings * kPerFiring / 2));
}

// A closure of up to 16 bytes is stored in the node: once the pool has
// its pages and the due heap its capacity, scheduling, firing,
// rearming and cancelling one allocates nothing, one-shot or periodic.
void small_closures_never_allocate() {
  sim::Scheduler s;
  std::int64_t sum = 0;
  auto shot = [p = &sum, k = std::int64_t{1}] { *p += k; };
  static_assert(sizeof(shot) == 16);
  std::vector<sim::Timer> live;
  live.reserve(500);
  auto round = [&] {
    for (int i = 0; i < 500; ++i) {
      live.push_back(s.schedule_after(SimTime::from_us(1 + i % 300), shot));
      if (i % 5 == 0) CHECK(live.back().rearm(SimTime::from_us(7)));
      if (i % 7 == 0) live.back().cancel();
      s.post_after(SimTime{i % 900}, shot);  // sub-tick: the due heap
    }
    sim::Timer tick = s.periodic(SimTime::from_us(50), shot);
    s.run_until(s.now() + SimTime::from_ms(1));
    CHECK(tick.armed());
    tick.cancel();
    s.run();
    live.clear();
  };
  round();  // warm: four pages and the due heap's capacity
  const std::int64_t warm_sum = sum;
  const std::size_t before = g_allocs;
  for (int r = 0; r < 3; ++r) round();
  CHECK(g_allocs == before);
  CHECK(sum == 4 * warm_sum);
  CHECK(s.pending() == 0);
}

// Closure lifetime. Tracked counts the destruction of the instance that
// owns the record (a moved-from one counts nothing); a run may cancel
// the running timer's own handle.
struct Life {
  int runs = 0;
  int destroyed = 0;
  sim::Timer* self = nullptr;  // cancelled by run number cancel_at
  int cancel_at = 0;
  void run() {
    ++runs;
    if (self != nullptr && runs == cancel_at) {
      self->cancel();
      CHECK(destroyed == 0);  // the running closure is still alive
    }
  }
};
struct Tracked {
  Life* life;
  explicit Tracked(Life* l) : life(l) {}
  Tracked(Tracked&& o) noexcept : life(o.life) { o.life = nullptr; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (life != nullptr) ++life->destroyed;
  }
};

/// A 40-byte closure: boxed on the heap.
auto boxed_closure(Life* l) {
  return [t = Tracked{l}, pad = std::array<std::uint64_t, 4>{}] {
    t.life->run();
    (void)pad;
  };
}
/// A 16-byte closure holding a shared_ptr: stored in the node and moved
/// by its own move constructor.
auto shared_closure(Life* l) {
  return [t = std::make_shared<Tracked>(l)] { t->life->run(); };
}

template <typename Make>
void closure_lifetimes(Make make, bool boxed) {
  const SimTime kFar = SimTime::from_sec(3600 * 5);  // level 4
  const SimTime kSubTick{300};                        // due heap
  // Scheduling costs one allocation (the box) when boxed, else none.
  {
    sim::Scheduler s;
    s.post_after(SimTime::from_us(1), [] {});
    s.run();  // first page
    Life l;
    auto c = make(&l);
    const std::size_t before = g_allocs;
    sim::Timer t = s.schedule_after(SimTime::from_ms(1), std::move(c));
    CHECK(g_allocs == before + (boxed ? 1 : 0));
    t.cancel();
    CHECK(l.destroyed == 1);
  }
  // Fired, as a one-shot and as a fire-and-forget post, from each
  // residency.
  for (SimTime at : {kSubTick, SimTime::from_ms(1), kFar}) {
    sim::Scheduler s;
    Life l;
    sim::Timer t = s.schedule_after(at, make(&l));
    s.post_after(at, make(&l));
    s.run();
    CHECK(l.runs == 2);
    CHECK(l.destroyed == 2);
  }
  // Cancelled on each residency: level 0, due heap, level 4.
  for (SimTime at : {kSubTick, SimTime::from_ms(1), kFar}) {
    sim::Scheduler s;
    Life l;
    sim::Timer t = s.schedule_after(at, make(&l));
    t.cancel();
    CHECK(l.destroyed == 1);
    s.run();
    CHECK(l.runs == 0);
    CHECK(l.destroyed == 1);
  }
  // Rearmed from the due heap and from level 4: the closure stays in
  // its node, which is re-placed under a new generation.
  for (SimTime at : {kSubTick, kFar}) {
    sim::Scheduler s;
    Life l;
    sim::Timer t = s.schedule_after(at, make(&l));
    CHECK(t.rearm(SimTime::from_ms(2)));
    CHECK(t.rearm(SimTime::from_ms(3)));  // now on the wheel
    CHECK(l.destroyed == 0);
    s.run();
    CHECK(l.runs == 1);
    CHECK(l.destroyed == 1);
    CHECK(s.now() == SimTime::from_ms(3));
  }
  // Cancelled mid-callback: a periodic cancels itself on its third
  // firing and its closure dies when the callback returns; a one-shot
  // cancels its own handle, already stale, from inside.
  {
    sim::Scheduler s;
    Life pl, ol;
    sim::Timer p, o;
    pl.self = &p;
    pl.cancel_at = 3;
    ol.self = &o;
    ol.cancel_at = 1;
    p = s.periodic(SimTime::from_ms(1), make(&pl));
    o = s.schedule_after(SimTime::from_ms(2), make(&ol));
    s.run();
    CHECK(pl.runs == 3);
    CHECK(pl.destroyed == 1);
    CHECK(ol.runs == 1);
    CHECK(ol.destroyed == 1);
    CHECK(s.pending() == 0);
  }
  // Torn down with the scheduler while pending on every residency.
  {
    Life l;
    {
      sim::Scheduler s;
      s.post_after(kSubTick, make(&l));
      s.post_after(SimTime::from_ms(1), make(&l));
      s.post_after(SimTime::from_ms(300), make(&l));  // level 1
      s.post_after(kFar, make(&l));
      s.run_until(SimTime{100});
      CHECK(s.pending() == 4);
    }
    CHECK(l.runs == 0);
    CHECK(l.destroyed == 4);
  }
}

void boxed_and_shared_closures_live_once() {
  static_assert(sizeof(boxed_closure(nullptr)) == 40);
  static_assert(sizeof(shared_closure(nullptr)) == 16);
  closure_lifetimes(boxed_closure, /*boxed=*/true);
  closure_lifetimes(shared_closure, /*boxed=*/false);
}

}  // namespace

int main() {
  randomized_equivalence();
  top_levels_fire_in_reference_order();
  cancel_before_fire();
  cancel_at_fire_time();
  cancel_after_fire();
  rearm_paths();
  level4_cascade();
  periodic_cadence();
  counters_and_drain();
  bounded_runs_fire_everything_due();
  cancel_never_allocates();
  far_future_timers_never_allocate();
  due_heap_nodes_are_reused();
  pool_grows_inside_callbacks();
  small_closures_never_allocate();
  boxed_and_shared_closures_live_once();
  return TEST_MAIN_RESULT();
}
