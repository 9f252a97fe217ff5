// network.hpp — the simulation façade: processing systems (nodes), wires
// between them, and the DIFs built over both.
//
// Network owns the scheduler, the links and the nodes; it is the
// "operator console" the benches script: add links, build a rank-0 DIF
// over wires (build_link_dif), stack an overlay DIF over N-1 flows
// (build_overlay_dif), move members around (attach_via_link,
// register_overlay_member, connect_overlay_members), and break things
// (set_link_state). Everything it does decomposes into IPCP operations —
// the façade contains no datapath of its own.
//
// Datapath note: the SDU given to Node::write is copied exactly once —
// into a headroomed rina::Packet at the EFCP edge. From there every
// layer (EFCP PCI, each stacked DIF's PCI, the NIC's dif-id tag) is
// prepended into the same allocation, and receive-side layers pull
// their headers off in place; the app-facing edges stay on Bytes.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/stats.hpp"
#include "dif/config.hpp"
#include "flow/flow.hpp"
#include "flow/qos.hpp"
#include "ipcp/ipcp.hpp"
#include "naming/names.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace rina::node {

struct LinkOpts {
  double rate_bps = 1e9;
  SimTime delay = SimTime::from_us(50);
  std::size_t queue_pkts = 64;
  std::optional<sim::GilbertElliottLoss::Params> gilbert_elliott;

  [[nodiscard]] sim::LinkConfig to_config() const {
    sim::LinkConfig cfg;
    cfg.rate_bps = rate_bps;
    cfg.delay = delay;
    cfg.queue_pkts = queue_pkts;
    cfg.ge = gilbert_elliott;
    return cfg;
  }
};

/// Blueprint for one DIF: its config, founding members and (optionally)
/// explicit address assignments (for topological addressing).
struct DifSpec {
  dif::DifConfig cfg;
  std::vector<std::string> members;
  std::map<std::string, naming::Address> addresses;
};

class Network;

/// One processing system: hosts IPC processes, one per DIF it belongs to.
///
/// The application edge is the paper's IPC API: register by name, then
/// allocate_flow(remote name, QoS spec) — no DIF argument; the node
/// consults the directories of every DIF it is enrolled in and picks one
/// that reaches the name *and* offers the requested service class.
/// allocate_flow_on pins the DIF (benches that measure one layer).
class Node : public ipcp::IpcpHost {
 public:
  Node(Network& net, std::string name);

  // IpcpHost
  [[nodiscard]] const std::string& node_name() const override { return name_; }
  sim::Scheduler& sched() override;
  naming::Address allocate_dif_address(const naming::DifName& dif) override;
  flow::PortId allocate_port_id() override;
  void release_port_id(flow::PortId port) override;
  std::shared_ptr<Stats> node_stats() override { return stats_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Shard this node (and every IPCP, flow and timer it owns) lives on.
  /// 0 unless the Network is sharded and a plan said otherwise.
  [[nodiscard]] int shard() const { return shard_; }
  /// Per-node app-edge counters (app_write_bad_port, alloc_no_such_cube).
  Stats& stats() { return *stats_; }

  ipcp::Ipcp* ipcp(const naming::DifName& dif);
  /// Instantiate an IPC process for `cfg.name` on this node. It starts
  /// un-enrolled (the Network's DIF builders enroll founding members).
  ipcp::Ipcp& create_ipcp(const dif::DifConfig& cfg);

  /// Register an application in `dif` under `app`; `accept` is handed a
  /// Flow for every incoming allocation.
  Result<void> register_app(const naming::AppName& app, const naming::DifName& dif,
                            flow::AcceptFn accept);

  /// Allocate a flow to `remote` by name alone. Returns the handle
  /// immediately in the `allocating` state; it transitions to open (or
  /// closed with error() set — not_found if no enrolled DIF resolves the
  /// name, no_such_cube if one does but none offers the requested class).
  flow::Flow allocate_flow(const naming::AppName& local,
                           const naming::AppName& remote,
                           const flow::QosSpec& spec);
  /// Escape hatch: pin the DIF instead of resolving by name.
  flow::Flow allocate_flow_on(const naming::DifName& dif,
                              const naming::AppName& local,
                              const naming::AppName& remote,
                              const flow::QosSpec& spec);

  /// Port-id write (the Flow handle's write is the primary surface). An
  /// unknown or closed port is a typed error plus a bumped per-node
  /// counter — never a silent drop. Bare port-ids have POSIX-fd
  /// semantics: retired ids are recycled, so a number cached past the
  /// flow's close may name a different flow — hold a Flow instead.
  Result<void> write(flow::PortId port, BytesView sdu);

 private:
  friend class Network;
  Network& net_;
  std::string name_;
  int shard_ = 0;
  std::map<std::string, std::unique_ptr<ipcp::Ipcp>> ipcps_;  // by DIF name
  flow::PortId next_port_ = 1;
  std::vector<flow::PortId> free_ports_;  // retired ids, recycled LIFO
  std::shared_ptr<Stats> stats_ = std::make_shared<Stats>();
};

class Network {
 public:
  /// One overlay adjacency: a and b become neighbors in the overlay DIF,
  /// riding a flow in `lower` allocated with `qos`.
  struct OverlayAdj {
    std::string a;
    std::string b;
    naming::DifName lower;
    flow::QosSpec qos;
  };

  explicit Network(std::uint64_t seed);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// The single-shard scheduler. Aborts on a sharded Network — sched_
  /// owns no nodes there, so a caller driving it would silently run an
  /// empty wheel; go through node(...).sched() or run_for/run_until.
  sim::Scheduler& sched() {
    if (sharded_) {
      std::fprintf(stderr,
                   "Network::sched: invalid on a sharded Network; use "
                   "node(...).sched() or run_for/run_until\n");
      std::abort();
    }
    return sched_;
  }
  [[nodiscard]] SimTime now() const {
    return sharded_ ? sharded_->now() : sched_.now();
  }
  void run_for(SimTime d) {
    if (sharded_) sharded_->run_for(d);
    else sched_.run_for(d);
  }
  template <typename Pred>
  bool run_until(Pred&& pred, SimTime timeout) {
    if (sharded_) return sharded_->run_until_pred(pred, sharded_->now() + timeout);
    return sched_.run_until_pred(pred, sched_.now() + timeout);
  }

  /// Partition the simulation into `shards` wheels driven by `threads`
  /// workers (sim::ShardedScheduler). Must be called before any node or
  /// link exists — a node's shard is fixed at creation. Nodes default to
  /// shard 0; assign_shard places them. Cross-shard links need positive
  /// delay (it bounds the conservative lookahead) and pay a ring
  /// crossing per frame, so put chatty neighbors on the same shard.
  void enable_sharding(int shards, int threads, std::size_t ring_capacity = 256);
  /// Plan `node` onto `shard`. Must precede the node's creation (first
  /// mention in add_link or node()).
  void assign_shard(const std::string& node, int shard);
  [[nodiscard]] bool sharded() const { return sharded_ != nullptr; }
  [[nodiscard]] int shard_of(const std::string& node) const;
  /// The sharded driver, or nullptr (cross-traffic counters, windows).
  [[nodiscard]] sim::ShardedScheduler* sharded_sched() { return sharded_.get(); }
  /// Total events executed / timers pending across every shard (or the
  /// one scheduler) — the benches' events/sec numerator.
  [[nodiscard]] std::uint64_t events_executed() const {
    return sharded_ ? sharded_->executed() : sched_.executed();
  }
  [[nodiscard]] std::size_t timers_pending() const {
    return sharded_ ? sharded_->pending() : sched_.pending();
  }

  Node& node(const std::string& name);

  sim::Link& add_link(const std::string& a, const std::string& b,
                      const LinkOpts& opts = {});
  sim::Link* link_between(const std::string& a, const std::string& b);
  Result<void> set_link_state(const std::string& a, const std::string& b, bool up);

  /// Build a rank-0 DIF directly over the wires among its members.
  Result<void> build_link_dif(DifSpec spec);

  /// Build a DIF whose neighbor attachments are flows in lower DIFs.
  Result<void> build_overlay_dif(DifSpec spec, std::vector<OverlayAdj> adjs);

  /// Register `node_name`'s IPC process of `dif` as an application in
  /// `lower`, so overlay flows can be allocated *to* it there.
  Result<void> register_overlay_member(const naming::DifName& dif,
                                       const std::string& node_name,
                                       const naming::DifName& lower);

  /// Allocate the lower flow for one overlay adjacency and bring the
  /// adjacency up (hello). Retries internally while the lower DIF
  /// converges.
  Result<void> connect_overlay_members(const naming::DifName& dif,
                                       const OverlayAdj& adj);

  /// Bind an overlay port for `for_node` over a lower flow per `adj`,
  /// without saying hello — for explicit enrollment (enroll_via).
  Result<relay::PortIndex> make_overlay_port(const naming::DifName& dif,
                                             const OverlayAdj& adj,
                                             const std::string& for_node);

  /// Wire ports for `dif` on both ends of the (first unwired) a—b link,
  /// with no greetings exchanged. Returns (a's port, b's port).
  Result<std::pair<relay::PortIndex, relay::PortIndex>> wire_ipcps(
      const naming::DifName& dif, const std::string& a, const std::string& b);

  /// Wire an additional member-to-member link into an existing link DIF
  /// (a new point of attachment) and exchange hellos.
  Result<void> connect_members(const naming::DifName& dif, const std::string& a,
                               const std::string& b);

  /// A non-member joins a link DIF over its wire to `via`: creates (or
  /// revives) the IPCP and starts enrollment.
  Result<void> attach_via_link(const naming::DifName& dif,
                               const std::string& newcomer,
                               const std::string& via);

  /// Sum a named counter over every member IPCP of `dif`.
  std::uint64_t sum_dif_counter(const naming::DifName& dif,
                                const std::string& counter);

  /// Sum a named counter over every link in one pass (benches at 10k+
  /// links must not walk link_between's O(L) lookup per pair).
  std::uint64_t sum_link_counter(const std::string& counter) const;

  /// Max of a named counter over every member IPCP of `dif` — for
  /// high-water gauges like "rmt_queue_peak", where summing across
  /// members would be meaningless.
  std::uint64_t max_dif_counter(const naming::DifName& dif,
                                const std::string& counter);

  naming::Address allocate_dif_address(const naming::DifName& dif);
  std::uint32_t dif_id_for(const naming::DifName& dif);

 private:
  friend class Node;

  struct Attach {
    ipcp::Ipcp* proc;
    relay::PortIndex idx;
  };
  struct LinkRec {
    std::unique_ptr<sim::Link> link;
    std::string a, b;
    // Per-side DIF attachments; the NIC demultiplexes on the frame's
    // dif-id prefix. A wire carries one or two DIFs in practice, so a
    // flat vector kept sorted by dif-id (same iteration order the old
    // map gave) beats a map node walk on the per-frame demux path.
    std::vector<std::pair<std::uint32_t, Attach>> attach[2];

    [[nodiscard]] Attach* find_attach_side(int side, std::uint32_t dif_id) {
      for (auto& [id, at] : attach[side])
        if (id == dif_id) return &at;
      return nullptr;
    }
    void set_attach(int side, std::uint32_t dif_id, Attach at) {
      auto& v = attach[side];
      std::size_t i = 0;
      for (; i < v.size(); ++i) {
        if (v[i].first == dif_id) {
          v[i].second = at;
          return;
        }
        if (v[i].first > dif_id) break;
      }
      v.insert(v.begin() + static_cast<std::ptrdiff_t>(i), {dif_id, at});
    }
  };
  struct DifEntry {
    dif::DifConfig cfg;
    std::uint32_t id;
    std::uint16_t next_addr = 1;
  };

  DifEntry& dif_entry(const dif::DifConfig& cfg);
  DifEntry* find_dif(const naming::DifName& dif);
  void bootstrap_members(DifEntry& entry, const DifSpec& spec);
  relay::PortIndex wire_port(LinkRec& rec, int side, ipcp::Ipcp& proc);
  LinkRec* find_unwired_link(const std::string& a, const std::string& b,
                             std::uint32_t dif_id, int* side_of_a);
  Attach* find_attach(const std::string& node_name, const std::string& peer,
                      std::uint32_t dif_id);
  static naming::AppName overlay_app(const naming::DifName& dif,
                                     const std::string& node_name);

  sim::Scheduler sched_;
  // Sharded driver, engaged by enable_sharding. Declared before nodes_
  // and links_ so both outlive-order correctly: nodes and links are
  // destroyed first, while the workers are parked.
  std::unique_ptr<sim::ShardedScheduler> sharded_;
  std::map<std::string, int> shard_plan_;
  std::size_t ring_capacity_ = 256;
  std::uint64_t seed_;
  std::uint64_t link_seq_ = 0;
  std::uint32_t next_dif_id_ = 1;
  std::map<std::string, std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<LinkRec>> links_;
  std::map<std::string, DifEntry> difs_;
  std::set<std::string> overlay_registered_;  // "<dif>\n<node>\n<lower>"
};

}  // namespace rina::node
