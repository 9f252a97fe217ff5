// flow.hpp — the application's first-class handle on one IPC flow.
//
// This is the API the paper argues networking must present: allocate a
// flow to an application *name* with a QoS spec, read/write a port,
// deallocate — nothing else. A Flow is a cheap copyable handle onto
// state shared with the DIF's flow allocator:
//
//   allocating → open → closing → closed
//
// write() refuses with Err::would_block when the flow's DTCP window (or
// the RMT class queue, for unreliable flows) is saturated — backpressure
// reaches the application instead of vanishing into an unbounded queue.
// read() pulls from a bounded per-flow receive queue (overflow is counted
// as app_rx_dropped in the IPC process's stats). deallocate() runs a
// release exchange that retires port state at BOTH ends and fires the
// remote peer's on_closed; it is idempotent.
//
// Event hooks (on_readable / on_writable / on_closed) receive the Flow by
// reference at fire time, so handlers need not capture the handle (a
// captured handle inside its own callback would be an ownership cycle).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/stats.hpp"
#include "flow/qos.hpp"

namespace rina::flow {

class Flow;

enum class FlowState { allocating, open, closing, closed };

inline const char* flow_state_name(FlowState s) {
  switch (s) {
    case FlowState::allocating: return "allocating";
    case FlowState::open: return "open";
    case FlowState::closing: return "closing";
    case FlowState::closed: return "closed";
  }
  return "?";
}

namespace detail {

/// State shared between the app's Flow handle(s) and the flow allocator's
/// record. Single-threaded (the sim's event loop); no locks. The
/// allocator wires do_write/do_deallocate while the flow is live and
/// clears them at close, so a stale handle can never reach freed state.
struct FlowShared : std::enable_shared_from_this<FlowShared> {
  FlowState state = FlowState::allocating;
  FlowInfo info;
  Error err;  // why allocation failed / the flow closed (none = clean)

  /// Bounded receive queue: the flow allocator delivers into it and the
  /// app pulls with Flow::read; overflow is dropped and counted
  /// (app_rx_dropped) — the reader, not the network, is falling behind.
  std::deque<Bytes> rx;
  static constexpr std::size_t rx_cap = 64;

  /// The hosting node's stats: app-edge misuse counters live per node.
  std::shared_ptr<Stats> node_stats;

  std::function<void(Flow&)> on_readable;
  std::function<void(Flow&)> on_writable;
  std::function<void(Flow&)> on_closed;

  std::function<Result<void>(BytesView)> do_write;
  std::function<void()> do_deallocate;

  bool want_writable = false;  // a write refused; arm on_writable
  bool closed_fired = false;   // on_closed fires exactly once

  // Defined after Flow (they construct one to hand to the hooks).
  inline void open_with(const FlowInfo& fi);
  inline void push_rx(Bytes&& sdu);
  inline void fire_writable();
  inline void finish_close(Error why);
};

}  // namespace detail

/// The application-facing flow handle. Copyable; all copies are the same
/// flow. A default-constructed Flow is invalid (every operation errors).
class Flow {
 public:
  Flow() = default;
  explicit Flow(std::shared_ptr<detail::FlowShared> s) : s_(std::move(s)) {}

  [[nodiscard]] bool valid() const { return s_ != nullptr; }
  [[nodiscard]] FlowState state() const {
    return s_ ? s_->state : FlowState::closed;
  }
  [[nodiscard]] bool is_allocating() const {
    return state() == FlowState::allocating;
  }
  [[nodiscard]] bool is_open() const { return state() == FlowState::open; }

  /// Port-id, app name pair, DIF and QoS cube — valid once open.
  [[nodiscard]] PortId port() const { return s_ ? s_->info.port : 0; }
  [[nodiscard]] const FlowInfo& info() const {
    static const FlowInfo kNone{};
    return s_ ? s_->info : kNone;
  }
  /// Why the flow is closed (allocation failure or abnormal teardown);
  /// Err::none after a clean close.
  [[nodiscard]] const Error& error() const {
    static const Error kNone{};
    return s_ ? s_->err : kNone;
  }

  /// Send one SDU. Err::would_block = backpressure (the DTCP window or
  /// the RMT class queue is saturated, or the flow is still allocating):
  /// retry after on_writable. Err::flow_closed = the flow is gone; this
  /// bumps the node's app_write_bad_port counter — no silent drop.
  Result<void> write(BytesView sdu) {
    if (!s_) return {Err::invalid, "null flow handle"};
    switch (s_->state) {
      case FlowState::allocating:
        s_->want_writable = true;  // on_writable fires once open
        return {Err::would_block, "flow is still allocating"};
      case FlowState::closing:
      case FlowState::closed:
        if (s_->node_stats) s_->node_stats->inc("app_write_bad_port");
        return {Err::flow_closed,
                std::string("flow is ") + flow_state_name(s_->state)};
      case FlowState::open:
        break;
    }
    if (!s_->do_write) return {Err::flow_closed, "flow detached"};
    auto r = s_->do_write(sdu);
    if (!r.ok() && r.error().code == Err::would_block)
      s_->want_writable = true;
    return r;
  }

  /// Pull the next received SDU, or nullopt when the queue is empty.
  std::optional<Bytes> read() {
    if (!s_ || s_->rx.empty()) return std::nullopt;
    Bytes b = std::move(s_->rx.front());
    s_->rx.pop_front();
    return b;
  }

  /// SDUs waiting in the receive queue.
  [[nodiscard]] std::size_t readable() const { return s_ ? s_->rx.size() : 0; }

  /// Fired when the receive queue transitions empty → non-empty; drain
  /// with read() inside the handler (edge-triggered). Registering while
  /// SDUs are already waiting delivers the edge immediately, so a late
  /// registration cannot strand queued data.
  void on_readable(std::function<void(Flow&)> fn) {
    if (!s_) return;
    s_->on_readable = std::move(fn);
    if (!s_->rx.empty() && s_->on_readable) s_->on_readable(*this);
  }
  /// Fired after a write refused with would_block, once the flow can
  /// accept again (window opened / queue drained / allocation finished).
  void on_writable(std::function<void(Flow&)> fn) {
    if (s_) s_->on_writable = std::move(fn);
  }
  /// Fired exactly once when the flow reaches closed — whether by local
  /// deallocate, the remote peer's release, or allocation failure.
  /// Registering on an already-closed flow (e.g. a synchronously failed
  /// allocation) fires immediately; the contract holds either way.
  void on_closed(std::function<void(Flow&)> fn) {
    if (!s_) return;
    if (s_->state == FlowState::closed) {
      if (fn) fn(*this);
      return;
    }
    s_->on_closed = std::move(fn);
  }

  /// Release the flow. Runs the release exchange with the peer (retiring
  /// port state at both ends); idempotent — a second call, or a call on
  /// an already-closed flow, is a no-op.
  void deallocate() {
    if (!s_) return;
    if (s_->state == FlowState::closing || s_->state == FlowState::closed)
      return;
    if (s_->state == FlowState::allocating) {
      // Cancel: the allocator's completion callback sees closed state and
      // releases whatever it was about to hand us.
      s_->finish_close(Error{});
      return;
    }
    if (s_->do_deallocate) s_->do_deallocate();
  }

 private:
  std::shared_ptr<detail::FlowShared> s_;
};

using AcceptFn = std::function<void(Flow)>;

namespace detail {

inline void FlowShared::open_with(const FlowInfo& fi) {
  info = fi;
  state = FlowState::open;
  if (want_writable) fire_writable();
}

inline void FlowShared::push_rx(Bytes&& sdu) {
  bool was_empty = rx.empty();
  rx.push_back(std::move(sdu));
  if (was_empty && on_readable) {
    Flow f(shared_from_this());
    on_readable(f);
  }
}

inline void FlowShared::fire_writable() {
  if (!want_writable) return;
  want_writable = false;
  if (on_writable) {
    Flow f(shared_from_this());
    on_writable(f);
  }
}

inline void FlowShared::finish_close(Error why) {
  if (state == FlowState::closed) return;
  state = FlowState::closed;
  if (why.code != Err::none) err = std::move(why);
  do_write = nullptr;
  do_deallocate = nullptr;
  if (closed_fired) return;
  closed_fired = true;
  if (on_closed) {
    Flow f(shared_from_this());
    on_closed(f);
  }
}

}  // namespace detail

}  // namespace rina::flow
