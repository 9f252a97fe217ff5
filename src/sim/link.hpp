// link.hpp — the physical layer: point-to-point links with rate,
// propagation delay, a bounded tx FIFO, and optional Gilbert-Elliott
// burst loss.
//
// A link is two independent directions sharing an up/down state. Each
// endpoint exposes exactly one receiver, one ready callback and one
// carrier callback; the owning node demultiplexes from there. send()
// returns false only on tx-FIFO overflow — that is the backpressure
// signal the RMT turns into queueing above the NIC. Frames in flight
// when the link goes down are lost (epoch check at delivery).
//
// Event economy: each direction keeps two monotone FIFOs —
// serialization completion times and in-flight frames with delivery
// times — and holds exactly one armed Timer per FIFO, set to the
// head's due time; a firing handles ONE entry and re-arms at the new
// head. Every frame reserves its two tie-break sequence numbers
// (serialization, then delivery) from the scheduler at send() time via
// reserve_seq, and deferred arming replays them with schedule_at_seq,
// so among equal-time events the firing order is exactly the send
// order — byte-identical to scheduling two closures per frame eagerly,
// at one live timer per FIFO.
//
// Memory: a FIFO is a ring that allocates on its first push, doubles
// when full, and frees its ring when it drains after growing past a
// few entries. A link that never carries a frame allocates nothing,
// and a burst does not leave its buffer behind on a quiet wire.
//
// Sharding: a direction whose endpoints live on different shards is
// wired to a sim::Boundary (set_cross). Serialization still runs on
// the sender's shard (the tx FIFO is sender state); the frame itself
// crosses in the boundary's SPSC ring stamped with its delivery time.
// The receiving shard drains the ring at its next window start, queues
// each frame in the direction's in-flight FIFO with a seq reserved
// then, and arms the rx timer exactly as a send does on one shard. The
// conservative window protocol guarantees the delivery time is still
// in that shard's future. Cross directions get a private GE rng (the
// shared per-link rng would be written from two shards); intra-shard
// links keep the shared rng so single-shard runs reproduce
// pre-sharding outputs. Only a link with GE loss holds generators
// (2.5 KB each); a lossless link draws nothing.
//
// Counters are per-direction plain fields — tx-side fields written
// only by the sender's shard, rx_frames only by the receiver's —
// summed on demand by counter(name) (driver thread, between windows).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace rina::sim {

class GilbertElliottLoss {
 public:
  struct Params {
    double p_good_to_bad = 0.0;
    double p_bad_to_good = 0.3;
    double loss_good = 0.0;
    double loss_bad = 0.5;
  };

  explicit GilbertElliottLoss(Params p) : p_(p) {}

  /// Advance the channel state one frame and sample whether it is lost.
  bool lose(std::mt19937_64& rng) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (bad_) {
      if (u(rng) < p_.p_bad_to_good) bad_ = false;
    } else {
      if (u(rng) < p_.p_good_to_bad) bad_ = true;
    }
    return u(rng) < (bad_ ? p_.loss_bad : p_.loss_good);
  }

 private:
  Params p_;
  bool bad_ = false;
};

struct LinkConfig {
  double rate_bps = 1e9;
  SimTime delay = SimTime::from_us(50);
  std::size_t queue_pkts = 64;
  std::optional<GilbertElliottLoss::Params> ge;
};

class Link {
 public:
  class Endpoint;

  /// General form: endpoint a's scheduler and endpoint b's. They are
  /// the same object unless the endpoints live on different shards.
  Link(Scheduler& sched_a, Scheduler& sched_b, LinkConfig cfg,
       std::uint64_t seed)
      : sched_a_(sched_a),
        sched_b_(sched_b),
        cfg_(cfg),
        seed_(seed),
        ep_{Endpoint{this, 0}, Endpoint{this, 1}} {
    if (cfg_.ge) {
      rng_ = std::make_unique<std::mt19937_64>(seed_);
      dir_[0].ge.emplace(*cfg_.ge);
      dir_[1].ge.emplace(*cfg_.ge);
    }
  }

  Link(Scheduler& sched, LinkConfig cfg, std::uint64_t seed)
      : Link(sched, sched, cfg, seed) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Route direction `side` (frames sent by endpoint `side`) through a
  /// shard boundary instead of the local scheduler. The boundary's src
  /// shard must own endpoint `side`, its dst shard the other endpoint.
  /// Call once per direction, before traffic, from the driver thread.
  void set_cross(int side, Boundary* out) {
    Direction& d = dir_[side];
    d.xout = out;
    // A private GE channel per cross direction: the shared rng_ would
    // be advanced from two shards. Seed derivation is fixed so results
    // do not depend on wiring order.
    if (d.ge)
      d.own_rng = std::make_unique<std::mt19937_64>(
          seed_ ^ (0x9e3779b97f4a7c15ULL * (side + 1)));
    out->set_sink([this, side](CrossEntry&& e) {
      deliver_cross(side, std::move(e));
    });
  }

  class Endpoint {
   public:
    Endpoint(Link* l, int side) : link_(l), side_(side) {}

    /// Queue a frame for transmission. False = tx FIFO full — the frame
    /// is NOT consumed, so the caller may hold it and retry on ready.
    /// Frames sent into a down link are silently lost, as on real media.
    bool send(Packet&& frame) { return link_->send_from(side_, std::move(frame)); }

    void set_receiver(std::function<void(Packet&&)> fn) {
      link_->dir_[1 - side_].deliver = std::move(fn);
    }
    void set_on_ready(std::function<void()> fn) {
      link_->dir_[side_].on_ready = std::move(fn);
    }
    void set_on_carrier(std::function<void(bool)> fn) {
      link_->carrier_cb_[side_] = std::move(fn);
    }

    [[nodiscard]] bool carrier() const { return link_->up_; }
    [[nodiscard]] Link& link() { return *link_; }

   private:
    Link* link_;
    int side_;
  };

  Endpoint& a() { return ep_[0]; }
  Endpoint& b() { return ep_[1]; }
  Endpoint& ep(int side) { return ep_[side]; }

  [[nodiscard]] bool up() const noexcept { return up_; }

  /// Driver thread only (shared state read by both directions).
  void set_up(bool up) {
    if (up_ == up) return;
    up_ = up;
    if (!up) ++epoch_;  // in-flight frames die with the carrier
    for (int s = 0; s < 2; ++s)
      if (carrier_cb_[s]) carrier_cb_[s](up);
  }

  /// Both directions summed; read quiesced (between windows). Unknown
  /// names read 0.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    std::uint64_t v = 0;
    for (const Direction& d : dir_) {
      if (name == "tx_carrier_lost") v += d.tx_carrier_lost;
      else if (name == "queue_drops") v += d.queue_drops;
      else if (name == "tx_frames") v += d.tx_frames;
      else if (name == "tx_bytes") v += d.tx_bytes;
      else if (name == "tx_frames_large") v += d.tx_frames_large;
      else if (name == "ge_lost") v += d.ge_lost;
      else if (name == "rx_frames") v += d.rx_frames;
      else if (name == "xshard_frames") v += d.xshard_frames;
      else if (name == "xshard_drops") v += d.xshard_drops;
      else if (name == "xshard_copies") v += d.xshard_copies;
    }
    return v;
  }

  [[nodiscard]] const LinkConfig& config() const { return cfg_; }

  /// Heap bytes held by both directions' FIFO rings: 0 until a frame is
  /// sent, and back to at most the small rings once traffic drains.
  [[nodiscard]] std::size_t fifo_bytes() const noexcept {
    std::size_t b = 0;
    for (const Direction& d : dir_)
      b += d.ser_done.capacity() * sizeof(SerDone) +
           d.inflight.capacity() * sizeof(InFlight);
    return b;
  }

 private:
  /// FIFO ring for a link direction's entries. Holds no storage until the
  /// first push; doubles when full; once it drains, gives its ring back if
  /// the ring had grown past kSmall entries. Capacity is a power of two.
  template <typename T>
  class Fifo {
   public:
    static constexpr std::uint32_t kSmall = 4;

    Fifo() noexcept = default;
    Fifo(const Fifo&) = delete;
    Fifo& operator=(const Fifo&) = delete;
    ~Fifo() {
      while (size_ > 0) pop_front();
      release();
    }

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

    T& front() noexcept { return ring_[head_]; }

    void push_back(T&& v) {
      if (size_ == cap_) grow();
      T* slot = ring_ + ((head_ + size_) & (cap_ - 1));
      ::new (static_cast<void*>(slot)) T(std::move(v));
      ++size_;
    }

    void pop_front() noexcept {
      ring_[head_].~T();
      head_ = (head_ + 1) & (cap_ - 1);
      if (--size_ == 0 && cap_ > kSmall) release();
    }

   private:
    void grow() {
      std::uint32_t cap = cap_ == 0 ? 2 : 2 * cap_;
      T* ring = std::allocator<T>{}.allocate(cap);
      for (std::uint32_t i = 0; i < size_; ++i) {
        T& from = ring_[(head_ + i) & (cap_ - 1)];
        ::new (static_cast<void*>(ring + i)) T(std::move(from));
        from.~T();
      }
      release();
      ring_ = ring;
      cap_ = cap;
    }

    void release() noexcept {
      if (ring_ != nullptr) std::allocator<T>{}.deallocate(ring_, cap_);
      ring_ = nullptr;
      cap_ = 0;
      head_ = 0;
    }

    T* ring_ = nullptr;
    std::uint32_t cap_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
  };

  struct SerDone {
    SimTime at;
    std::uint64_t seq;  // reserved at send(); replayed when arming
  };

  struct InFlight {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t epoch;
    bool lost;
    Packet frame;
  };

  struct Direction {
    SimTime busy_until{};
    std::size_t queued = 0;
    Fifo<SerDone> ser_done;   // serialization completions, monotone
    Fifo<InFlight> inflight;  // deliveries, monotone (receiver's shard)
    Timer tx_timer;           // armed at ser_done.front()
    Timer rx_timer;           // armed at inflight.front().at
    // Mirrors of {tx,rx}_timer.armed(), maintained at the only two
    // transition points (arm here, clear at fire entry). armed() walks
    // the scheduler's node pool — a guaranteed cache miss per frame on
    // the hottest path in the simulator; the bools answer locally.
    bool tx_armed = false;
    bool rx_armed = false;
    std::function<void(Packet&&)> deliver;
    std::function<void()> on_ready;
    std::optional<GilbertElliottLoss> ge;
    Boundary* xout = nullptr;                  // cross-shard egress, or null
    std::unique_ptr<std::mt19937_64> own_rng;  // GE rng for cross directions
    // Sender-shard counters (everything below but rx_frames); the
    // receiver's shard owns inflight, rx_timer and rx_armed.
    std::uint64_t tx_carrier_lost = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t tx_frames_large = 0;
    std::uint64_t ge_lost = 0;
    std::uint64_t xshard_frames = 0;  // entries handed to the boundary
    std::uint64_t xshard_drops = 0;   // boundary ring full
    std::uint64_t xshard_copies = 0;  // deep copies forced by shared bufs
    // Receiver-shard counter, deliberately alone:
    std::uint64_t rx_frames = 0;
  };

  /// Scheduler owning the SENDING endpoint of direction `side`.
  [[nodiscard]] Scheduler& tx_sched(int side) {
    return side == 0 ? sched_a_ : sched_b_;
  }
  /// Scheduler owning the RECEIVING endpoint of direction `side`.
  [[nodiscard]] Scheduler& rx_sched(int side) {
    return side == 0 ? sched_b_ : sched_a_;
  }

  bool send_from(int side, Packet&& frame) {
    Direction& d = dir_[side];
    Scheduler& sch = tx_sched(side);
    if (!up_) {
      ++d.tx_carrier_lost;
      return true;  // accepted and lost: dead fiber, not backpressure
    }
    if (d.queued >= cfg_.queue_pkts) {
      ++d.queue_drops;
      return false;
    }
    ++d.queued;
    ++d.tx_frames;
    d.tx_bytes += frame.size();
    if (frame.size() >= 512) ++d.tx_frames_large;

    SimTime tx_time =
        SimTime::from_sec(static_cast<double>(frame.size()) * 8.0 / cfg_.rate_bps);
    SimTime start = sch.now() < d.busy_until ? d.busy_until : sch.now();
    d.busy_until = start + tx_time;
    bool lost = d.ge && d.ge->lose(d.own_rng ? *d.own_rng : *rng_);
    if (lost) ++d.ge_lost;

    // Reserve both tie-break seqs NOW, serialization before delivery —
    // the stream order a per-frame eager scheduler would have produced.
    std::uint64_t ser_seq = sch.reserve_seq();
    std::uint64_t rx_seq = sch.reserve_seq();
    SimTime deliver_at = d.busy_until + cfg_.delay;

    d.ser_done.push_back(SerDone{d.busy_until, ser_seq});
    if (d.xout) {
      if (!lost) {
        // The PacketBuf refcount is not atomic: a frame crossing shards
        // must own its buffer exclusively. Shared buffers (e.g. a
        // multicast of one arena buf) are deep-copied — counted, rare.
        if (!frame.unique()) {
          ++d.xshard_copies;
          frame = Packet::with_headroom(frame.headroom(), frame.view());
        }
        if (d.xout->push(CrossEntry{deliver_at.ns, rx_seq, epoch_, 0,
                                    std::move(frame)}))
          ++d.xshard_frames;
        else
          ++d.xshard_drops;
      }
    } else {
      d.inflight.push_back(
          InFlight{deliver_at, rx_seq, epoch_, lost, std::move(frame)});
      arm_rx(side);
    }
    arm_tx(side);
    return true;
  }

  /// Arm direction `side`'s serialization (tx) or delivery (rx) timer at
  /// its FIFO's head, with the seq the head reserved, unless the timer
  /// is armed already or the FIFO is empty. Every arming goes through
  /// one of these two.
  void arm_tx(int side) {
    Direction& d = dir_[side];
    if (d.tx_armed || d.ser_done.empty()) return;
    d.tx_armed = true;
    d.tx_timer = tx_sched(side).schedule_at_seq(
        d.ser_done.front().at, d.ser_done.front().seq,
        [this, side] { tx_fire(side); });
  }
  void arm_rx(int side) {
    Direction& d = dir_[side];
    if (d.rx_armed || d.inflight.empty()) return;
    d.rx_armed = true;
    d.rx_timer = rx_sched(side).schedule_at_seq(
        d.inflight.front().at, d.inflight.front().seq,
        [this, side] { rx_fire(side); });
  }

  /// Serialization completed for the head frame: free its FIFO slot and
  /// re-arm at the next head with its reserved seq. on_ready may send
  /// reentrantly and arm the timer itself; arm_tx then leaves it be.
  void tx_fire(int side) {
    Direction& d = dir_[side];
    d.tx_armed = false;  // this firing consumed the armed timer
    d.ser_done.pop_front();
    bool was_full = d.queued >= cfg_.queue_pkts;
    if (d.queued > 0) --d.queued;
    if (was_full && d.on_ready) d.on_ready();
    arm_tx(side);
  }

  /// Propagation completed for the head frame: deliver it unless lost
  /// or the carrier died since (epoch mismatch), re-arm at the next.
  void rx_fire(int side) {
    Direction& d = dir_[side];
    d.rx_armed = false;  // this firing consumed the armed timer
    InFlight f = std::move(d.inflight.front());
    d.inflight.pop_front();
    arm_rx(side);
    if (f.lost || !up_ || f.epoch != epoch_) return;
    ++d.rx_frames;
    if (d.deliver) d.deliver(std::move(f.frame));
  }

  /// Boundary sink: runs on the RECEIVING shard when it drains the ring
  /// at a window start; the conservative protocol guarantees
  /// e.at_ns >= that shard's clock. The frame joins the in-flight FIFO
  /// with a seq reserved now. The drain merges boundaries in (time,
  /// boundary, seq) order, so these seqs, and with them the firing
  /// order, do not depend on the thread count.
  void deliver_cross(int side, CrossEntry&& e) {
    dir_[side].inflight.push_back(InFlight{SimTime{e.at_ns},
                                           rx_sched(side).reserve_seq(),
                                           e.epoch, false, std::move(e.frame)});
    arm_rx(side);
  }

  Scheduler& sched_a_;
  Scheduler& sched_b_;
  LinkConfig cfg_;
  std::uint64_t seed_;
  std::unique_ptr<std::mt19937_64> rng_;  // set iff cfg_.ge
  Direction dir_[2];
  Endpoint ep_[2];
  std::function<void(bool)> carrier_cb_[2];
  bool up_ = true;
  std::uint64_t epoch_ = 0;
};

}  // namespace rina::sim
