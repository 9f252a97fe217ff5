// connection.hpp — EFCP's DTP machine: sequencing, retransmission and
// reordering, one instance per flow endpoint.
//
// The same machine runs at every rank of the stack; only its *policies*
// change (the paper's separation of mechanism and policy — policies.hpp).
// Transmission control is delegated to the DTCP half (dtcp.hpp): DTP
// asks `dtcp_.can_send()` before transmitting and feeds it every ack,
// echoed congestion mark, and loss event; whether that implements a
// static window, an ECN-driven AIMD window, or token-bucket pacing is
// the connection's policy, not its mechanism. When both the window and
// the bounded send queue fill, write_sdu() refuses — backpressure to
// the layer above instead of loss below.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/packet.hpp"
#include "common/result.hpp"
#include "common/stats.hpp"
#include "efcp/dtcp.hpp"
#include "efcp/pci.hpp"
#include "efcp/policies.hpp"
#include "sim/scheduler.hpp"

namespace rina::efcp {

struct ConnectionId {
  naming::Address src;
  naming::Address dst;
  CepId src_cep = 0;
  CepId dst_cep = 0;
  QosId qos = 0;
};

class Connection {
 public:
  using SendFn = std::function<void(Pdu&&)>;
  using DeliverFn = std::function<void(Packet&&)>;

  Connection(sim::Scheduler& sched, const EfcpPolicies& pol, ConnectionId id,
             SendFn send, DeliverFn deliver)
      : sched_(sched),
        pol_(pol),
        dtcp_(sched, pol_),
        id_(id),
        send_(std::move(send)),
        deliver_(std::move(deliver)) {
    // Per-PDU counter cells resolved once (Stats::slot): these five run
    // for every data PDU / ack on the connection.
    c_pdus_tx_ = stats_.slot("pdus_tx");
    c_pdus_rx_ = stats_.slot("pdus_rx");
    c_acks_tx_ = stats_.slot("acks_tx");
    c_acks_rx_ = stats_.slot("acks_rx");
    c_sdus_delivered_ = stats_.slot("sdus_delivered");
    // DTCP governs the reliable sender's admission; an unreliable flow
    // has no acks (so no window and no congestion feedback) and sends
    // on write. A non-default tx policy on such a flow is inert —
    // surface that instead of silently ignoring the configuration.
    if (!pol_.reliable && pol_.tx_policy != TxPolicy::static_window)
      stats_.inc("dtcp_policy_ignored");
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] const ConnectionId& id() const { return id_; }
  Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Accept an SDU from the layer above (edge API): copies once into a
  /// headroomed Packet, after which every layer below prepends in place.
  /// Backpressure is checked before the copy, so refused writes (which
  /// callers retry in a loop) cost no allocation and don't inflate the
  /// payload-copy counters.
  Result<void> write_sdu(BytesView sdu) {
    if (sdu.size() > kMaxSduBytes)
      return {Err::invalid, "SDU exceeds the PCI length field (no fragmentation)"};
    if (would_refuse()) {
      stats_.inc("write_refused");
      refused_ = true;
      return {Err::backpressure, "EFCP window and send queue full"};
    }
    Packet pkt = Packet::with_headroom(kDefaultHeadroom, sdu);
    return write_sdu_pkt(pkt);
  }

  /// Zero-copy write: accepts an SDU already carried in a Packet (the
  /// recursive case — an upper DIF's frame entering this one).
  /// Err::backpressure when the window and the send queue are both full;
  /// on backpressure `sdu` is left intact so the caller can retry it.
  Result<void> write_sdu_pkt(Packet& sdu) {
    if (sdu.size() > kMaxSduBytes)
      return {Err::invalid, "SDU exceeds the PCI length field (no fragmentation)"};
    if (!pol_.reliable) {
      ++*c_pdus_tx_;
      send_(make_data(next_seq_++, std::move(sdu), false));
      return Ok();
    }
    // Write order is delivery order: SDUs already waiting in the send
    // queue must go first. Under rate_based pacing a token can mature
    // between the timer that drains the queue and this write, so drain
    // before deciding whether the new SDU may jump straight to the wire.
    if (!sendq_.empty()) drain_sendq();
    if (!sendq_.empty() || !dtcp_.can_send(inflight_.size())) {
      if (would_refuse()) {
        stats_.inc("write_refused");
        refused_ = true;
        return {Err::backpressure, "EFCP window and send queue full"};
      }
      sendq_.push_back(std::move(sdu));
      schedule_paced_drain();
      return Ok();
    }
    transmit_new(std::move(sdu));
    return Ok();
  }

  /// A PDU for this connection arrived from the RMT (zero-copy path).
  void on_pdu(const Pci& pci, Packet&& payload) {
    switch (pci.type) {
      case PduType::data:
        on_data(pci, std::move(payload));
        break;
      case PduType::ack:
        on_ack(pci);
        break;
      default:
        break;
    }
  }

  /// View-based delivery (tests, replay tooling): copies into a Packet.
  void on_pdu(const Pci& pci, BytesView payload) {
    on_pdu(pci, Packet::with_headroom(0, payload));
  }

  [[nodiscard]] std::size_t inflight() const { return inflight_.size(); }
  [[nodiscard]] std::size_t queued() const { return sendq_.size(); }

  /// Arm a one-per-refusal writability signal: after a write has been
  /// refused with backpressure, `cb` fires (from a fresh scheduler event,
  /// never reentrantly) once the window/queue can admit again. The flow
  /// allocator uses this to drive the app-visible on_writable hook.
  void set_on_writable(std::function<void()> cb) {
    on_writable_ = std::move(cb);
  }

  /// DTCP visibility: the current transmission window, the raw
  /// congestion window of the windowed policies, and the shared RTT
  /// estimator. The IPCP reads its EFCP gauges from these when asked
  /// (Ipcp::counter_sum), so the stats hold counts only.
  [[nodiscard]] std::size_t tx_window() const { return dtcp_.window(); }
  [[nodiscard]] double cwnd() const { return dtcp_.cwnd(); }
  [[nodiscard]] const RttEstimator& rtt() const { return dtcp_.rtt(); }

 private:
  /// The one refusal predicate, shared by write_sdu's pre-copy check and
  /// write_sdu_pkt's admission so the two can never diverge. (A full
  /// send queue implies a non-empty one, and drain_sendq() keeps "queue
  /// non-empty" equivalent to "DTCP denies", so checking can_send here
  /// matches write_sdu_pkt's post-drain admission exactly.)
  [[nodiscard]] bool would_refuse() const {
    return pol_.reliable && !dtcp_.can_send(inflight_.size()) &&
           sendq_.size() >= pol_.send_queue;
  }

  struct Unacked {
    Packet payload;  // cheap handle sharing the transmitted frame's buffer
    SimTime sent;
    bool retransmitted = false;
  };

  Pdu make_data(std::uint64_t seq, Packet payload, bool retx) {
    Pdu p;
    p.pci.type = PduType::data;
    p.pci.flags = kFlagFirstFrag | kFlagLastFrag;
    if (retx) p.pci.flags |= kFlagRetransmit;
    p.pci.qos_id = id_.qos;
    p.pci.dest = id_.dst;
    p.pci.src = id_.src;
    p.pci.dest_cep = id_.dst_cep;
    p.pci.src_cep = id_.src_cep;
    p.pci.seq = seq;
    p.payload = std::move(payload);
    return p;
  }

  void transmit_new(Packet payload) {
    std::uint64_t seq = next_seq_++;
    // Park a handle, not a copy: the frame keeps traveling down the stack
    // as the buffer's frontier handle, so lower-layer prepends stay in
    // place; only an actual retransmission pays a copy-on-write.
    inflight_.emplace_back(seq, Unacked{payload.share(), sched_.now(), false});
    ++*c_pdus_tx_;
    dtcp_.on_sent();
    send_(make_data(seq, std::move(payload), false));
    if (inflight_.size() == 1) arm_timer();
  }

  /// Transmit from the send queue while DTCP admits.
  void drain_sendq() {
    while (!sendq_.empty() && dtcp_.can_send(inflight_.size())) {
      Packet next = std::move(sendq_.front());
      sendq_.pop_front();
      transmit_new(std::move(next));
    }
    schedule_paced_drain();
    maybe_notify_writable();
  }

  /// A refused writer gets one wake-up when admission reopens. Deferred
  /// through the scheduler so the callback never reenters the caller that
  /// triggered the drain; the refusal predicate is rechecked at fire time
  /// (another writer may have refilled the queue meanwhile). The owned
  /// Timer is the lifetime guard: destroying the connection cancels it.
  void maybe_notify_writable() {
    if (!refused_ || !on_writable_ || would_refuse()) return;
    refused_ = false;
    writable_timer_ = sched_.schedule_after(SimTime{0}, [this] {
      if (on_writable_ && !would_refuse()) on_writable_();
    });
  }

  /// Under rate_based pacing the window can be open while the token
  /// bucket is empty; no ack will arrive to restart transmission, so a
  /// timer must. Window-closed queueing still drains from on_ack.
  void schedule_paced_drain() {
    if (pol_.tx_policy != TxPolicy::rate_based) return;
    if (pace_timer_.armed() || sendq_.empty()) return;
    if (!dtcp_.window_open(inflight_.size())) return;  // acks will drain
    pace_timer_ =
        sched_.schedule_after(dtcp_.next_ready_delay(), [this] { drain_sendq(); });
  }

  // ---- sender side ----

  void on_ack(const Pci& pci) {
    ++*c_acks_rx_;
    std::uint64_t cum = pci.seq;
    // An echoed congestion mark is acted on whether or not the ack
    // advances — the receiver saw congestion inside this DIF.
    if ((pci.flags & kFlagEcnEcho) != 0) {
      stats_.inc("ecn_echo_rx");
      if (dtcp_.on_congestion(acked_, next_seq_)) stats_.inc("cwnd_backoffs");
    }
    if (cum > acked_) {
      std::size_t newly = 0;
      while (!inflight_.empty() && inflight_.front().first < cum) {
        const Unacked& u = inflight_.front().second;
        // Karn's rule lives in the estimator: a sample over a
        // retransmitted PDU is refused there, and the refusal is counted
        // here so tests can see ambiguous samples never reach the filter.
        if (!dtcp_.on_rtt_sample(sched_.now() - u.sent, u.retransmitted))
          stats_.inc("rtt_samples_karn_ignored");
        inflight_.pop_front();
        ++newly;
      }
      acked_ = cum;
      dup_acks_ = 0;
      dtcp_.on_ack_edge_advance();
      if ((pci.flags & kFlagEcnEcho) == 0) dtcp_.on_ack_advance(newly);
      drain_sendq();
      arm_timer();
      return;
    }
    // Duplicate cumulative ack: the receiver is missing `cum`.
    if (++dup_acks_ >= pol_.fast_retx_dups) {
      dup_acks_ = 0;
      retransmit_oldest(/*fast=*/true);
      // A fast retransmit is inferred loss — congestion feedback like an
      // RTO (the recovery guard keeps it to one cut per window).
      if (dtcp_.on_congestion(acked_, next_seq_)) stats_.inc("cwnd_backoffs");
    }
  }

  void retransmit_oldest(bool fast) {
    if (inflight_.empty()) return;
    auto& [seq, u] = inflight_.front();
    u.retransmitted = true;
    stats_.inc("pdus_retx");
    if (fast) stats_.inc("fast_retx");
    send_(make_data(seq, u.payload.share(), true));
  }

  void on_rto() {
    if (inflight_.empty()) return;
    // Repair conservatively: resend only the oldest hole. A spurious
    // timeout (RTT inflated by queueing) then costs one duplicate, not a
    // whole-window storm; fast retransmit carries the common case.
    retransmit_oldest(false);
    stats_.inc("rto_fired");
    // Loss is a congestion signal too (the marks may have been lost with
    // the PDUs they rode on).
    if (dtcp_.on_congestion(acked_, next_seq_)) stats_.inc("cwnd_backoffs");
    dtcp_.on_rto_timeout();
    arm_timer();
  }

  /// (Re)target the retransmission timer at the owned handle: the common
  /// path — an ack while the timer is armed — rearms in place, reusing
  /// the stored closure with no allocation; cancellation is the handle's
  /// destructor, so no epoch or alive-token bookkeeping remains. The
  /// timeout itself is the estimator's: filtered RTO plus backoff.
  void arm_timer() {
    if (inflight_.empty()) {
      rto_timer_.cancel();
      return;
    }
    SimTime t = dtcp_.rto();
    if (!rto_timer_.rearm(t))
      rto_timer_ = sched_.schedule_after(t, [this] { on_rto(); });
  }

  // ---- receiver side ----

  void on_data(const Pci& pci, Packet&& payload) {
    ++*c_pdus_rx_;
    if ((pci.flags & kFlagEcn) != 0) {
      // A congested RMT inside this DIF marked the PDU; echo on the next
      // ack so the sender's DTCP backs off within the DIF's scope.
      stats_.inc("ecn_rx");
      ecn_to_echo_ = true;
    }
    if (!pol_.reliable) {
      ++*c_sdus_delivered_;
      deliver_(std::move(payload));
      return;
    }
    if (pci.seq < next_expected_) {
      stats_.inc("pdus_dup");
    } else if (pci.seq == next_expected_) {
      ++next_expected_;
      ++*c_sdus_delivered_;
      deliver_(std::move(payload));
      if (pol_.in_order) {
        // Drain any contiguous run that was waiting on this PDU.
        for (auto it = reorder_.begin();
             it != reorder_.end() && it->first == next_expected_;) {
          ++next_expected_;
          ++*c_sdus_delivered_;
          deliver_(std::move(it->second));
          it = reorder_.erase(it);
        }
      } else {
        // Unordered: these were delivered on arrival; advance the
        // cumulative-ack edge over them.
        while (delivered_ooo_.erase(next_expected_) != 0) ++next_expected_;
      }
    } else if (!pol_.in_order) {
      // Reliable but unordered: deliver immediately, remember the seq so
      // retransmissions are recognized and the ack edge can advance.
      if (delivered_ooo_.count(pci.seq) != 0) {
        stats_.inc("pdus_dup");
      } else if (delivered_ooo_.size() < pol_.reorder_buf) {
        delivered_ooo_.insert(pci.seq);
        ++*c_sdus_delivered_;
        deliver_(std::move(payload));
      } else {
        stats_.inc("reorder_drops");
      }
    } else if (reorder_.size() < pol_.reorder_buf) {
      reorder_.emplace(pci.seq, std::move(payload));
    } else {
      stats_.inc("reorder_drops");
    }
    send_ack();
  }

  void send_ack() {
    Pdu p;
    p.pci.type = PduType::ack;
    p.pci.qos_id = id_.qos;
    p.pci.dest = id_.dst;
    p.pci.src = id_.src;
    p.pci.dest_cep = id_.dst_cep;
    p.pci.src_cep = id_.src_cep;
    p.pci.seq = next_expected_;
    if (ecn_to_echo_) {
      p.pci.flags |= kFlagEcnEcho;
      ecn_to_echo_ = false;
      stats_.inc("ecn_echoed");
    }
    ++*c_acks_tx_;
    send_(std::move(p));
  }

  sim::Scheduler& sched_;
  EfcpPolicies pol_;
  Dtcp dtcp_;
  ConnectionId id_;
  SendFn send_;
  DeliverFn deliver_;
  std::function<void()> on_writable_;
  Stats stats_;
  // Cached per-PDU counter cells (see Stats::slot), set in the ctor.
  std::uint64_t* c_pdus_tx_ = nullptr;
  std::uint64_t* c_pdus_rx_ = nullptr;
  std::uint64_t* c_acks_tx_ = nullptr;
  std::uint64_t* c_acks_rx_ = nullptr;
  std::uint64_t* c_sdus_delivered_ = nullptr;

  // Sender.
  std::uint64_t next_seq_ = 0;
  std::uint64_t acked_ = 0;
  // Sequence numbers are assigned monotonically and acked cumulatively,
  // so the unacked set is a deque ordered by construction: O(1) append,
  // O(1) cumulative-ack pops, O(1) oldest-hole lookup — no map on the
  // per-PDU path.
  std::deque<std::pair<std::uint64_t, Unacked>> inflight_;
  std::deque<Packet> sendq_;
  int dup_acks_ = 0;
  bool refused_ = false;  // a write hit backpressure; wake-up armed
  sim::Timer rto_timer_;
  sim::Timer pace_timer_;
  sim::Timer writable_timer_;

  // Receiver.
  std::uint64_t next_expected_ = 0;
  bool ecn_to_echo_ = false;
  std::map<std::uint64_t, Packet> reorder_;       // in-order: held-back SDUs
  std::set<std::uint64_t> delivered_ooo_;         // unordered: dedup/ack edge
};

}  // namespace rina::efcp
