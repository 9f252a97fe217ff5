// ipcp.hpp — one IPC process: a member of one DIF on one processing
// system. The paper's claim is that networking is this object, repeated:
//
//   * Enrollment  — joining the DIF under its admission policy (§6.1);
//   * Directory   — name -> address, internal to the DIF;
//   * Flow alloc  — request IPC to an application by *name*; get a
//                   port-id back; addresses never reach the app;
//   * EFCP        — per-flow error/flow control with per-DIF policies;
//   * RMT         — relaying & multiplexing over the DIF's ports with
//                   two-step forwarding (routing/graph + relay/forwarding);
//   * Routing     — link-state flooding scoped to this DIF only.
//
// Ports are the IPCP's attachments to the level below: a wire for a
// rank-0 DIF, an N-1 flow for an overlay DIF. The IPCP cannot tell the
// difference — that indistinguishability is the recursion.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/stats.hpp"
#include "content/store.hpp"
#include "dif/config.hpp"
#include "efcp/connection.hpp"
#include "efcp/pci.hpp"
#include "flow/flow.hpp"
#include "flow/qos.hpp"
#include "naming/dir_cache.hpp"
#include "naming/directory.hpp"
#include "naming/names.hpp"
#include "relay/forwarding.hpp"
#include "rib/riep.hpp"
#include "routing/lsdb.hpp"
#include "sim/scheduler.hpp"

namespace rina::ipcp {

class Ipcp;

/// What an IPCP needs from the processing system that hosts it.
class IpcpHost {
 public:
  virtual ~IpcpHost() = default;
  [[nodiscard]] virtual const std::string& node_name() const = 0;
  virtual sim::Scheduler& sched() = 0;
  virtual naming::Address allocate_dif_address(const naming::DifName& dif) = 0;
  virtual flow::PortId allocate_port_id() = 0;
  /// A flow retired its port-id; the node may recycle it (handles hold
  /// shared state, never bare port-ids, so recycling cannot alias).
  virtual void release_port_id(flow::PortId port) = 0;
  /// The node's own stats (app-edge misuse counters are per node, not
  /// per DIF). Shared so a Flow handle outliving the node stays safe.
  virtual std::shared_ptr<Stats> node_stats() = 0;
};

/// Relaying and Multiplexing Task: the forwarding engine of one IPCP. It
/// counts into its IPCP's table.
class Rmt {
 public:
  explicit Rmt(Ipcp& self);

  relay::ForwardingTable& fib() { return fib_; }

  /// Route a PDU originated by this IPCP (EFCP output or routed mgmt).
  void send(efcp::Pdu&& pdu);

  /// Transmit raw on a specific port, bypassing routing (used by tests
  /// and by attackers with a wire — exactly why ingress gates ports).
  Result<void> egress_via(relay::PortIndex port, efcp::Pdu&& pdu);

  /// Queue on a port, honoring the DIF's scheduling discipline.
  void egress(relay::PortIndex port, efcp::Pdu&& pdu);
  void drain(relay::PortIndex port);

  /// Would a PDU to `dest` in class `qos` clear the egress queue right
  /// now? The app edge asks this for unreliable flows (no window to
  /// refuse at) so saturation surfaces as would_block, not tail-drop.
  [[nodiscard]] bool would_accept(naming::Address dest, efcp::QosId qos) const;

 private:
  friend class Ipcp;
  /// Scheduling urgency of a QoS class (lower = sooner): the cube's
  /// declared priority, falling back to the raw id for unknown classes.
  [[nodiscard]] std::uint8_t class_priority(efcp::QosId q) const;
  Ipcp& self_;
  relay::ForwardingTable fib_;
  // Per-PDU counter cells resolved once (Stats::slot): send/relay/egress
  // run for every forwarded PDU and must not pay a string lookup each.
  std::uint64_t* c_pdus_out_;
  std::uint64_t* c_relayed_;
};

/// Flow allocator: names in, Flow handles out. It counts into its IPCP's
/// table, and folds each closed connection's counts into it.
class FlowAllocator {
 public:
  explicit FlowAllocator(Ipcp& self) : self_(self) {}

  /// Detach every app handle on teardown: a Flow that outlives its IPCP
  /// sees writes fail as flow_closed instead of dereferencing freed
  /// state. (Timers die with their owning records automatically.)
  ~FlowAllocator();

  /// Register an application by name. `accept` receives a Flow handle for
  /// every incoming flow; the allocator keeps the flow's shared state
  /// alive while it is open, so the app may drop the handle and work
  /// purely from the event hooks.
  Result<void> register_app(const naming::AppName& app, flow::AcceptFn accept);
  /// Withdraw a registration: the name leaves this member's accept table
  /// and the DIF's directory (targeted update + cache invalidation in
  /// hierarchical mode, tombstone elsewhere). The app can then register
  /// elsewhere — mobility is unregister here, register there.
  Result<void> unregister_app(const naming::AppName& app);
  [[nodiscard]] bool can_resolve(const naming::AppName& app) const;
  /// Does this DIF offer a QoS cube matching `spec`? (Name-only
  /// allocation skips DIFs that resolve the name but not the spec.)
  [[nodiscard]] bool can_satisfy(const flow::QosSpec& spec) const;

  /// Internal allocation plumbing (overlay adjacencies, Node's Flow
  /// surface). Apps use Node::allocate_flow, which returns a Flow.
  void allocate(const naming::AppName& local, const naming::AppName& remote,
                const flow::QosSpec& spec, flow::AllocateCallback cb);

  /// Bind an app-visible handle to a live flow: wires write/deallocate
  /// ops, the bounded rx queue and the writability signal into `shared`.
  void attach_handle(flow::PortId port,
                     std::shared_ptr<flow::detail::FlowShared> shared);

  Result<void> write(flow::PortId port, BytesView sdu);
  /// Zero-copy write for the recursive case: `sdu` is an upper DIF's
  /// frame riding this flow. Left intact on Err::backpressure (retry).
  Result<void> write_pkt(flow::PortId port, Packet& sdu);
  efcp::Connection* connection(flow::PortId port);

  /// Initiate the release exchange: both ends retire port state, the
  /// peer's on_closed fires. Idempotent while the close is in flight.
  Result<void> deallocate(flow::PortId port);

  /// Redirect a flow's delivery/teardown to an internal consumer (the
  /// overlay port riding this flow).
  void set_flow_sink(flow::PortId port, std::function<void(Packet&&)> on_data,
                     std::function<void()> on_closed);

  void close_all(bool notify_peers);

  /// Slots in the CEP demultiplex table: set by the most flows open at
  /// once, however many have come and gone.
  [[nodiscard]] std::size_t cep_slots() const noexcept {
    return by_cep_.slots();
  }

 private:
  friend class Ipcp;

  /// Local CEP-id -> port-id for live flows: an open-addressing table
  /// with linear probing, doubled when half full and erased by backward
  /// shift (no tombstones), so its size follows the most flows ever open
  /// at once, not the CEP-ids ever handed out. Port-id 0 marks a free
  /// slot.
  class CepTable {
   public:
    [[nodiscard]] flow::PortId find(efcp::CepId c) const noexcept {
      if (slots_.empty()) return 0;
      for (std::size_t i = home(c);; i = (i + 1) & mask()) {
        if (slots_[i].port == 0) return 0;
        if (slots_[i].cep == c) return slots_[i].port;
      }
    }

    /// Map c to p, replacing c's entry if it has one.
    void put(efcp::CepId c, flow::PortId p) {
      if (2 * (live_ + 1) > slots_.size()) grow();
      std::size_t i = home(c);
      while (slots_[i].port != 0 && slots_[i].cep != c) i = (i + 1) & mask();
      if (slots_[i].port == 0) ++live_;
      slots_[i] = Slot{p, c};
    }

    void erase(efcp::CepId c) noexcept {
      if (slots_.empty()) return;
      std::size_t i = home(c);
      for (;; i = (i + 1) & mask()) {
        if (slots_[i].port == 0) return;
        if (slots_[i].cep == c) break;
      }
      // Pull later entries of the probe run back into the hole, each one
      // whose home lies at or before the hole (cyclically).
      for (std::size_t j = (i + 1) & mask(); slots_[j].port != 0;
           j = (j + 1) & mask()) {
        if (((j - home(slots_[j].cep)) & mask()) >= ((j - i) & mask())) {
          slots_[i] = slots_[j];
          i = j;
        }
      }
      slots_[i] = Slot{};
      --live_;
    }

    [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }

   private:
    struct Slot {
      flow::PortId port = 0;
      efcp::CepId cep = 0;
    };

    [[nodiscard]] std::size_t mask() const noexcept {
      return slots_.size() - 1;
    }
    /// Fibonacci hash: sequential CEP-ids land far apart.
    [[nodiscard]] std::size_t home(efcp::CepId c) const noexcept {
      return static_cast<std::size_t>((c * 0x9E3779B9u) >> 16) & mask();
    }

    void grow() {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(old.empty() ? 8 : 2 * old.size(), Slot{});
      live_ = 0;
      for (const Slot& s : old)
        if (s.port != 0) put(s.cep, s.port);
    }

    std::vector<Slot> slots_;
    std::size_t live_ = 0;
  };

  struct FlowRec {
    flow::PortId port = 0;
    naming::AppName local, remote;
    naming::Address peer;
    flow::QosCube cube;
    efcp::CepId local_cep = 0, remote_cep = 0;
    std::unique_ptr<efcp::Connection> conn;
    std::shared_ptr<flow::detail::FlowShared> shared;  // app handle state
    std::function<void(Packet&&)> sink;  // overrides app delivery when set
    std::function<void()> on_closed;     // internal (overlay) teardown
    // Release FSM (initiator side).
    bool closing = false;
    int release_attempts = 0;
    // Owned timers: destroying the record (finish_close, teardown)
    // cancels them, so recycled port-ids can never be confused for a
    // stale timer's target.
    sim::Timer release_timer;
    sim::Timer rmt_poll_timer;
  };

  struct Pending {
    naming::AppName local, remote;
    flow::AllocateCallback cb;
    flow::QosCube cube;
    efcp::CepId local_cep = 0;
    SimTime deadline{};
    sim::Timer timer;  // miss retry / request resend; dies with us
  };

  FlowRec* by_port(flow::PortId p) {
    return p < flows_.size() ? flows_[p].get() : nullptr;
  }
  /// CEP demultiplex for the per-PDU hot path: a probe of the live-CEP
  /// table, then a vector index.
  FlowRec* by_cep(efcp::CepId c) { return by_port(by_cep_.find(c)); }
  /// The next local CEP-id in sequence. Once the 16-bit counter wraps it
  /// skips 0 and every id a live flow holds, so a new flow never takes
  /// over a live one's PDUs.
  efcp::CepId fresh_cep() {
    while (next_cep_ == 0 || by_cep_.find(next_cep_) != 0) ++next_cep_;
    return next_cep_++;
  }
  void insert_rec(std::unique_ptr<FlowRec> rec) {
    flow::PortId port = rec->port;
    if (flows_.size() <= port) flows_.resize(static_cast<std::size_t>(port) + 1);
    flows_[port] = std::move(rec);
  }
  [[nodiscard]] const flow::QosCube* find_cube(const flow::QosSpec& spec) const;
  /// Resolve the pending request's name; resolved() takes the answer.
  void try_pending(std::uint32_t invoke_id);
  /// Send the FlowReq to `at`, or on a miss retry after kAllocRetry
  /// until the deadline.
  void resolved(std::uint32_t invoke_id, std::optional<naming::Address> at);
  void finish_pending(std::uint32_t invoke_id, Result<flow::FlowInfo> r);
  /// Open a flow on a fresh port-id: its record, its connection and its
  /// CEP binding. Returns what the app's handle is told.
  flow::FlowInfo open_flow(const naming::AppName& local, const naming::AppName& remote,
                           naming::Address peer, const flow::QosCube& cube,
                           efcp::CepId local_cep, efcp::CepId remote_cep);
  void create_connection(FlowRec& rec);
  void deliver_sdu(FlowRec& rec, Packet&& sdu);
  void notify_writable(flow::PortId port);
  void arm_rmt_poll(FlowRec& rec);
  void on_flow_req(const efcp::Pci& pci, const rib::RiepMessage& m);
  void on_flow_resp(const efcp::Pci& pci, const rib::RiepMessage& m);
  void on_flow_release(const efcp::Pci& pci, const rib::RiepMessage& m);
  void on_flow_release_ack(const efcp::Pci& pci, const rib::RiepMessage& m);
  static rib::RiepMessage release_msg(const FlowRec& rec);
  void send_release(flow::PortId port);
  void finish_close(FlowRec& rec);

  Ipcp& self_;
  std::map<naming::AppName, flow::AcceptFn> apps_;
  // Hot-path flow lookup: flows_ is indexed by port-id (the host hands
  // them out low-first and recycles), by_cep_ maps each live flow's
  // local CEP-id (sequential; see fresh_cep) to its port. Neither walks
  // a map per PDU.
  std::vector<std::unique_ptr<FlowRec>> flows_;
  CepTable by_cep_;
  std::map<std::uint64_t, flow::PortId> remote_flow_index_;  // (peer, cep)
  std::map<std::uint32_t, Pending> pending_;
  std::uint32_t next_invoke_ = 1;
  efcp::CepId next_cep_ = 1;
};

class Ipcp {
 public:
  Ipcp(IpcpHost& host, const dif::DifConfig& cfg, std::uint32_t dif_id);

  // ---- identity ----
  [[nodiscard]] naming::Address address() const { return address_; }
  [[nodiscard]] bool enrolled() const { return enrolled_; }
  [[nodiscard]] const dif::DifConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint32_t dif_id() const { return dif_id_; }
  sim::Scheduler& sched() { return host_.sched(); }

  Rmt& rmt() { return rmt_; }
  FlowAllocator& fa() { return fa_; }
  /// The RMT's content store, or nullptr when the DIF's policy disables
  /// it (rmt_content_store_objects == 0).
  content::ContentStore* content_store() { return cstore_.get(); }
  naming::Directory& directory() { return dir_; }
  /// This IPCP's one counter table: the counts of its management plane,
  /// enrollment, RMT and flow allocator, and its closed connections'.
  Stats& stats() { return stats_; }

  /// A counter summed over this table, the content store and the live
  /// connections. The gauges are read at their source instead, as the
  /// largest value: "rmt_queue_peak" over the ports' egress queues, and
  /// "cwnd_pdus", "srtt_us", "rttvar_us" and "rto_us" over the live
  /// connections (the RTT ones read 0 before a connection's first
  /// sample). A closed flow's gauges are gone with it.
  [[nodiscard]] std::uint64_t counter_sum(const std::string& name) const;

  // ---- bootstrap (called by the Network façade) ----
  void bootstrap_member(naming::Address addr);  // founding member: no join

  // ---- ports ----
  struct PortInit {
    /// Transmit one encoded frame on the attachment below. Contract:
    /// false = backpressure and the frame is left intact (the RMT keeps
    /// it queued until the attachment calls port_ready); true = consumed
    /// (sent or lost).
    std::function<bool(Packet&)> tx;
  };
  relay::PortIndex add_port(PortInit init);
  void start_port(relay::PortIndex idx);  // announce ourselves (Hello)
  void on_port_frame(relay::PortIndex idx, Packet&& frame);
  void set_port_carrier(relay::PortIndex idx, bool up);
  /// The attachment can take frames again after refusing one: drain the
  /// port's RMT queue.
  void port_ready(relay::PortIndex idx);
  [[nodiscard]] bool port_up(relay::PortIndex idx) const;

  // ---- membership ----
  Result<void> enroll_via(relay::PortIndex idx);
  void leave(bool teardown_flows);

  // ---- directory (app registration side-effects) ----
  void publish_app(const naming::AppName& app);
  void unpublish_app(const naming::AppName& app);

  // ---- name resolution ----
  using ResolveCb = std::function<void(std::optional<naming::Address>)>;
  /// Resolve a name: local replica, then (hierarchical DIFs only) TTL
  /// cache, then a query up the resolver chain (member -> region anchor
  /// -> root). In flat DIFs this degenerates to the local lookup. `cb`
  /// is never null and fires exactly once; a query still in flight when
  /// this member leaves ends as a miss.
  void resolve_name(const naming::AppName& app, ResolveCb cb);
  naming::DirCache& dir_cache() { return dir_cache_; }
  /// My region's resolver anchor: node 1 of my region.
  [[nodiscard]] naming::Address dir_anchor() const {
    return naming::Address{address_.region, 1};
  }

 private:
  friend class Rmt;
  friend class FlowAllocator;

  struct Port {
    std::function<bool(Packet&)> tx;
    bool carrier = true;        // wire carrier / lower-flow liveness
    bool alive = true;          // keepalive verdict
    bool peer_enrolled = false; // valid Hello seen or join completed
    bool hello_sent = false;
    naming::Address peer;
    relay::EgressQueues queue;  // per-QoS bounded RMT egress above the NIC
    sim::Timer hello_timer;     // Hello re-announce while unanswered
    SimTime last_heard{};
    std::optional<std::uint64_t> join_nonce;  // member side of psk handshake
  };

  [[nodiscard]] bool usable(const Port& p) const {
    return p.carrier && p.alive && p.peer_enrolled && !p.peer.is_null();
  }

  // Management-plane plumbing.
  void send_mgmt(relay::PortIndex idx, const rib::RiepMessage& m);
  void send_routed_mgmt(naming::Address dest, const rib::RiepMessage& m);
  void handle_mgmt(relay::PortIndex idx, const efcp::Pdu& pdu);
  void handle_hello(relay::PortIndex idx, const rib::RiepMessage& m);
  void handle_keepalive(relay::PortIndex idx);
  void handle_bye(relay::PortIndex idx);
  void handle_join_msg(relay::PortIndex idx, const rib::RiepMessage& m);
  /// Read one link-state record and install it if its (origin, seq) is
  /// news; returns its origin. nullopt = mine, stale, duplicate or bad.
  std::optional<naming::Address> apply_lsu(BufReader& r);
  /// The one write path of the directory, for every record: my own
  /// publication, an entry a Sync carries, a DirUpd at a hierarchical
  /// authority. Applies it by its stamp and kills every cached copy of
  /// the binding it replaced. False = stale or duplicate, no change.
  bool apply_dir_record(const naming::AppName& app, std::optional<naming::Address> at,
                        naming::Directory::Stamp s);
  /// A targeted write to this directory authority (hierarchical mode).
  void apply_dir_update(const rib::RiepMessage& m);
  /// Stamp my directory change to `app` (bind here, or remove) and tell
  /// the DIF: a flood, or the resolver chain when hierarchical. The
  /// version is max(last seen + 1, now in ns), so a new home outranks an
  /// old one it never heard from (members share one clock).
  void publish_dir_change(const naming::AppName& app, bool bound);

  // Replicated state (Sync): LSDB and directory records, flooded as they
  // change and handed to a peer met by hello, by enrollment, or again
  // after an outage.
  /// My state in chunks of at most kSnapshotBudget bytes; none when
  /// there is nothing.
  [[nodiscard]] std::vector<Bytes> sync_chunks(naming::Address peer) const;
  /// Apply one Sync; its news floods on (not toward `from`). False = bad.
  bool apply_sync(relay::PortIndex from, const rib::RiepMessage& m);
  /// The adjacency on `idx` came or went: re-route, and Sync the peer if
  /// this makes it my neighbor (new, or back after an outage).
  void port_changed(relay::PortIndex idx);

  // Hierarchical directory plumbing.
  [[nodiscard]] naming::Address resolver_parent() const;
  void start_dir_query(const naming::AppName& app, ResolveCb cb);
  void send_dir_query(const naming::AppName& app);
  void finish_dir_query(const naming::AppName& app,
                        std::optional<naming::Address> result);
  void send_targeted_dir_update(const naming::AppName& app, naming::Directory::Stamp s,
                                std::optional<naming::Address> at);
  void send_dir_inval(naming::Address to, const naming::AppName& app,
                      naming::Address at);
  void cascade_dir_inval(const naming::AppName& app, naming::Address at);
  void handle_dir_read(const rib::RiepMessage& m);
  void handle_dir_read_reply(const rib::RiepMessage& m);
  void handle_dir_inval(const rib::RiepMessage& m);

  [[nodiscard]] std::uint64_t auth_token(std::uint64_t nonce) const;
  /// `create` announces this end and repeats until the peer is heard;
  /// `reply` answers a peer that repeated its create.
  void send_hello(relay::PortIndex idx, rib::RiepOp op = rib::RiepOp::create);
  void join_attempt(relay::PortIndex idx);
  /// Am I enrolling through `idx`? Only then do I heed a sponsor there.
  [[nodiscard]] bool joining_via(relay::PortIndex idx) const {
    return !enrolled_ && join_port_ == idx;
  }
  void admit_joiner(relay::PortIndex idx);
  void complete_enrollment(relay::PortIndex idx, const rib::RiepMessage& m);

  // Routing engine (link-state, scoped to this DIF).
  void adjacency_changed();
  void schedule_spf();
  void originate_lsu();
  void flood(const rib::RiepMessage& m, std::optional<relay::PortIndex> except);
  void flood(std::vector<Bytes> chunks, std::optional<relay::PortIndex> except);  // as Syncs
  void run_spf();
  void rebuild_neighbor_ports();
  /// The peers of my usable ports, sorted, each once.
  [[nodiscard]] std::vector<naming::Address> live_neighbors() const;

  // Keepalives.
  void keepalive_tick();

  // Local delivery.
  void deliver_local(efcp::Pdu&& pdu);

  /// RMT content-store policy, applied to data PDUs in relay. True =
  /// the PDU was consumed (an interest answered from the store).
  bool content_store_filter(efcp::Pdu& pdu);

  IpcpHost& host_;
  dif::DifConfig cfg_;
  std::uint32_t dif_id_;
  naming::Address address_;
  bool enrolled_ = false;
  bool departed_ = false;

  std::vector<Port> ports_;
  naming::Directory dir_;
  Stats stats_;
  // Per-mgmt-PDU counter cells (Stats::slot): send_mgmt classifies every
  // keepalive, hello and Sync it emits, which at scale is the busiest
  // non-data path in the node. A Sync carrying LSDB records counts as an
  // LSU flooded; a names-only Sync as plain RIEP.
  std::uint64_t* c_hellos_sent_ = nullptr;
  std::uint64_t* c_keepalives_sent_ = nullptr;
  std::uint64_t* c_lsus_flooded_ = nullptr;
  std::uint64_t* c_riep_sent_ = nullptr;
  std::uint64_t* c_mgmt_bytes_ = nullptr;  // control bytes on the wire
  // Per-LSU, per-record and per-SPF-run cells, for the same reason.
  std::uint64_t* c_lsus_received_ = nullptr;
  std::uint64_t* c_lsus_originated_ = nullptr;
  std::uint64_t* c_lsus_dup_suppressed_ = nullptr;
  std::uint64_t* c_dir_dups_suppressed_ = nullptr;
  std::uint64_t* c_spf_runs_ = nullptr;
  std::uint64_t* c_spf_vertices_ = nullptr;

  Rmt rmt_;
  FlowAllocator fa_;
  std::unique_ptr<content::ContentStore> cstore_;  // per-DIF RMT policy

  // Enrollment, joiner side: the attempt in progress. The owned timer is
  // both the join timeout and the retry gap — re-arming or cancelling it
  // supersedes any previous attempt, no epoch bookkeeping.
  std::optional<relay::PortIndex> join_port_;
  int join_attempts_ = 0;
  sim::Timer join_timer_;
  // Member side: deterministic challenge nonces.
  std::uint64_t nonce_counter_ = 0;

  // Link-state database: with dir_ and its version stamps, this member's
  // share of the DIF's replicated state.
  routing::Lsdb lsdb_;
  std::vector<naming::Address> lsu_scratch_;  // apply_lsu's decoded list
  std::uint64_t lsu_seq_ = 0;
  std::vector<naming::Address> last_neighbor_set_;

  // Hierarchical directory resolution state (cfg_.dir_hierarchical).
  naming::DirCache dir_cache_;
  struct PendingResolve {
    std::vector<ResolveCb> cbs;
    int attempts = 0;
    sim::Timer timer;
  };
  std::map<naming::AppName, PendingResolve> pending_resolve_;
  // Who asked me for a name recently (authorities only; queries land on
  // the resolver chain). Invalidations cascade down these edges instead
  // of flooding the DIF, so a mobility event costs O(actual interest).
  std::map<naming::AppName, std::map<naming::Address, SimTime>> dir_interest_;

  // Owned timers replace the scheduled/alive-token flags: armed() is the
  // "already scheduled" test and destruction is the cancellation.
  sim::Timer lsu_timer_;
  sim::Timer spf_timer_;
  sim::Timer keepalive_timer_;               // periodic while enrolled
  std::vector<sim::Timer> announce_timers_;  // staggered app re-announces
};

}  // namespace rina::ipcp
