// ipcp.cpp — the IPC process implementation: management plane (hello,
// enrollment, directory and link-state dissemination as RIEP objects),
// flow allocation, and the RMT datapath.

#include "ipcp/ipcp.hpp"

#include <algorithm>

#include "content/protocol.hpp"
#include "routing/unit_spf.hpp"

namespace rina::ipcp {

namespace {

using rib::ObjClass;
using rib::RiepOp;

constexpr SimTime kHelloRetry = SimTime::from_ms(200);
constexpr SimTime kJoinTimeout = SimTime::from_ms(600);
constexpr SimTime kJoinRetryGap = SimTime::from_ms(120);
constexpr SimTime kLsuDebounce = SimTime::from_ms(1);
constexpr SimTime kSpfDebounce = SimTime::from_ms(8);
// A flow request whose name did not resolve (not registered yet, or this
// member not enrolled yet) resolves again after this gap.
constexpr SimTime kAllocRetry = SimTime::from_ms(10);
constexpr SimTime kAllocResend = SimTime::from_ms(500);
constexpr SimTime kAllocDeadline = SimTime::from_sec(8);
// Release handshake: retry until the peer acks, then give up and retire
// unilaterally (the peer may be gone — a leaked port would be worse).
constexpr SimTime kReleaseRetry = SimTime::from_ms(250);
constexpr int kMaxReleaseAttempts = 4;
// Writability poll gap for unreliable flows blocked on a full RMT class
// queue (no ack clock exists to wake them).
constexpr SimTime kRmtPollGap = SimTime::from_us(400);
constexpr int kMaxJoinAttempts = 3;
// Hierarchical directory queries: retry against routing convergence,
// then report the miss (the flow allocator retries a miss on its own).
constexpr SimTime kDirQueryRetry = SimTime::from_ms(50);
constexpr int kMaxDirQueryAttempts = 4;
constexpr std::size_t kMaxDirInterest = 128;
constexpr std::uint64_t kHelloNonce = 0x48454c4c4f754c4cULL;
// An adjacency is dead after this many keepalive intervals of silence.
constexpr int kKeepaliveMisses = 3;
constexpr std::size_t kDirCacheEntries = 4096;  // resolved names cached per member
constexpr SimTime kDirCacheTtl = SimTime::from_sec(5);
// The top of every hierarchical resolver chain: region 1's anchor.
constexpr naming::Address kDirRoot{1, 1};
// A Sync chunk stays comfortably inside the PCI's u16 payload length
// (there is no fragmentation); larger state goes in more chunks.
constexpr std::size_t kSnapshotBudget = 56000;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void put_addr(BufWriter& w, naming::Address a) { w.put_u32(a.key()); }

/// Management messages enter the datapath as headroomed Packets so the
/// PCI (and any lower DIFs' PCIs on stacked paths) prepend in place.
Packet mgmt_payload(const rib::RiepMessage& m) {
  Bytes raw = m.encode();
  return Packet::with_headroom(kDefaultHeadroom, BytesView{raw});
}

naming::Address get_addr(BufReader& r) {
  std::uint32_t k = r.get_u32();
  return naming::Address{static_cast<std::uint16_t>(k >> 16),
                         static_cast<std::uint16_t>(k & 0xFFFF)};
}

void put_app(BufWriter& w, const naming::AppName& a) {
  w.put_lpstring(a.process);
  w.put_lpstring(a.instance);
}

naming::AppName get_app(BufReader& r) {
  naming::AppName a;
  a.process = r.get_lpstring();
  a.instance = r.get_lpstring();
  return a;
}

/// One link-state record, as a Sync carries it. Layout: origin | u64 seq
/// | u16 n | n neighbor addresses.
std::size_t lsu_record_size(naming::AddressSpan neighbors) {
  return 14 + 4 * neighbors.size();
}

void put_lsu_record(BufWriter& w, naming::Address origin, std::uint64_t seq,
                    naming::AddressSpan neighbors) {
  put_addr(w, origin);
  w.put_u64(seq);
  w.put_u16(static_cast<std::uint16_t>(neighbors.size()));
  for (auto n : neighbors) put_addr(w, n);
}

/// One directory record: a Sync's directory entry, and a DirUpd's value.
/// Layout: origin | u64 version | u8 op (1 = bound, 2 = removed) | app |
/// bound address. `at` is nullopt for a removal (a tombstone).
struct DirRecord {
  naming::AppName app;
  naming::Directory::Stamp stamp;
  std::optional<naming::Address> at;
};

std::size_t dir_record_size(const naming::AppName& a) {
  return 21 + a.process.size() + a.instance.size();
}

void put_dir_record(BufWriter& w, const naming::AppName& app,
                    naming::Directory::Stamp s, std::optional<naming::Address> at) {
  put_addr(w, s.origin);
  w.put_u64(s.version);
  w.put_u8(at ? 1 : 2);
  put_app(w, app);
  put_addr(w, at.value_or(s.origin));
}

DirRecord get_dir_record(BufReader& r) {
  DirRecord d;
  d.stamp.origin = get_addr(r);
  d.stamp.version = r.get_u64();
  std::uint8_t op = r.get_u8();
  d.app = get_app(r);
  naming::Address at = get_addr(r);
  if (op == 1) d.at = at;
  return d;
}

rib::RiepMessage sync_msg(Bytes chunk) {
  return {RiepOp::write, ObjClass::sync, 0, std::move(chunk)};
}

/// A Sync carrying LSDB records is a link-state message: it counts as
/// lsus_flooded when sent and lsus_received when received.
bool carries_lsdb(const rib::RiepMessage& m) {
  return m.obj_class == ObjClass::sync && m.value.size() >= 4 &&
         (m.value[2] | m.value[3]) != 0;
}

/// Builds every Sync: a flood of one record, a hand-over, the news of a
/// partly stale chunk. Records go into chunks of at most kSnapshotBudget
/// bytes, each laid out u16 ndir | u16 nlsu | ndir directory records |
/// nlsu LSDB records; a directory record after LSDB records starts a
/// new chunk.
class SyncPacker {
 public:
  void add_dir(const naming::AppName& app, naming::Directory::Stamp s,
               std::optional<naming::Address> at) {
    if (nlsu_ != 0) close();
    fit(dir_record_size(app));
    put_dir_record(w_, app, s, at);
    ++ndir_;
  }
  void add_lsu(naming::Address origin, std::uint64_t seq, naming::AddressSpan neighbors) {
    fit(lsu_record_size(neighbors));
    put_lsu_record(w_, origin, seq, neighbors);
    ++nlsu_;
  }
  /// The chunks; none when no record was added.
  std::vector<Bytes> take() && {
    close();
    return std::move(chunks_);
  }

 private:
  /// Make room for a record of `next` bytes: close the open chunk if the
  /// record would push it past the budget (a chunk always takes its
  /// first record), and open a chunk, counts first, if none is open.
  void fit(std::size_t next) {
    if (ndir_ + nlsu_ != 0 && w_.size() + next > kSnapshotBudget) close();
    if (ndir_ + nlsu_ == 0) {
      w_ = BufWriter(4 + next);
      w_.put_u32(0);  // room for the counts
    }
  }
  void close() {
    if (ndir_ + nlsu_ == 0) return;
    Bytes chunk = std::move(w_).take();
    if (chunk.size() >= 4) {  // a latched writer yields no chunk
      store_be16(chunk.data(), ndir_);
      store_be16(chunk.data() + 2, nlsu_);
      chunks_.push_back(std::move(chunk));
    }
    ndir_ = nlsu_ = 0;
  }

  BufWriter w_;
  std::uint16_t ndir_ = 0, nlsu_ = 0;
  std::vector<Bytes> chunks_;
};

// Topological aggregation: full entries for my region, one wildcard entry
// per foreign region (routes grow with regions, not nodes), holding the
// hops of the region's first nearest member. In place: a wildcard {r, 0}
// sorts before every member of region r, so the routes stay in order.
void aggregate_foreign_regions(std::vector<routing::UnitSpf::Route>& routes,
                               std::uint16_t mine) {
  std::size_t w = 0;
  for (const routing::UnitSpf::Route& r : routes) {
    if (r.dest.region == mine) {
      routes[w++] = r;
      continue;
    }
    const routing::UnitSpf::Route wild{r.dest.region_wildcard(), r.dist, r.hops};
    if (w == 0 || routes[w - 1].dest != wild.dest)
      routes[w++] = wild;
    else if (wild.dist < routes[w - 1].dist)
      routes[w - 1] = wild;
  }
  routes.resize(w);
}

/// An EFCP gauge's current value on one connection: its window, or its
/// RTT estimator's, which reads 0 until the first sample.
using EfcpGauge = std::uint64_t (*)(const efcp::Connection&);

std::uint64_t sampled_us(const efcp::Connection& c, SimTime t) {
  return c.rtt().has_sample() ? static_cast<std::uint64_t>(t.ns / 1000) : 0;
}

/// The reader of the EFCP gauge `name`; nullptr for a counter.
EfcpGauge efcp_gauge(const std::string& name) {
  if (name == "cwnd_pdus")
    return [](const efcp::Connection& c) -> std::uint64_t { return c.tx_window(); };
  if (name == "srtt_us")
    return [](const efcp::Connection& c) { return sampled_us(c, c.rtt().srtt()); };
  if (name == "rttvar_us")
    return [](const efcp::Connection& c) { return sampled_us(c, c.rtt().rttvar()); };
  if (name == "rto_us")
    return [](const efcp::Connection& c) { return sampled_us(c, c.rtt().rto()); };
  return nullptr;
}

}  // namespace

// ============================ Ipcp core ============================

Ipcp::Ipcp(IpcpHost& host, const dif::DifConfig& cfg, std::uint32_t dif_id)
    : host_(host),
      cfg_(cfg),
      dif_id_(dif_id),
      rmt_(*this),
      fa_(*this),
      dir_cache_(kDirCacheTtl, kDirCacheEntries) {
  c_hellos_sent_ = stats_.slot("hellos_sent");
  c_keepalives_sent_ = stats_.slot("keepalives_sent");
  c_lsus_flooded_ = stats_.slot("lsus_flooded");
  c_riep_sent_ = stats_.slot("riep_sent");
  c_mgmt_bytes_ = stats_.slot("mgmt_bytes_sent");
  c_lsus_received_ = stats_.slot("lsus_received");
  c_lsus_originated_ = stats_.slot("lsus_originated");
  c_lsus_dup_suppressed_ = stats_.slot("lsus_dup_suppressed");
  c_dir_dups_suppressed_ = stats_.slot("dir_dups_suppressed");
  c_spf_runs_ = stats_.slot("spf_runs");
  c_spf_vertices_ = stats_.slot("spf_vertices_recomputed");
  if (cfg_.cubes.empty()) cfg_.cubes = dif::default_cubes();
  if (cfg_.rmt_content_store_objects > 0)
    cstore_ = std::make_unique<content::ContentStore>(cfg_.rmt_content_store_objects);
}

std::uint64_t Ipcp::counter_sum(const std::string& name) const {
  std::uint64_t n = 0;
  if (name == "rmt_queue_peak") {
    for (const Port& p : ports_) n = std::max<std::uint64_t>(n, p.queue.peak());
    return n;
  }
  if (EfcpGauge g = efcp_gauge(name)) {
    for (const auto& rec : fa_.flows_)
      if (rec && rec->conn) n = std::max(n, g(*rec->conn));
    return n;
  }
  n = stats_.get(name);
  if (cstore_) n += cstore_->stats().get(name);
  for (const auto& rec : fa_.flows_)
    if (rec && rec->conn) n += rec->conn->stats().get(name);
  return n;
}

void Ipcp::bootstrap_member(naming::Address addr) {
  address_ = addr;
  enrolled_ = true;
  if (cfg_.keepalive_enabled && !keepalive_timer_.armed()) {
    keepalive_tick();
    keepalive_timer_ =
        sched().periodic(cfg_.keepalive_interval, [this] { keepalive_tick(); });
  }
}

std::uint64_t Ipcp::auth_token(std::uint64_t nonce) const {
  return splitmix64(nonce ^ fnv1a(cfg_.auth_secret));
}

bool Ipcp::port_up(relay::PortIndex idx) const {
  if (idx >= ports_.size()) return false;
  const Port& p = ports_[idx];
  return p.carrier && p.alive;
}

relay::PortIndex Ipcp::add_port(PortInit init) {
  Port p;
  p.tx = std::move(init.tx);
  p.last_heard = sched().now();
  relay::EgressQueues::Config qc;
  qc.sched = cfg_.rmt_sched;
  qc.capacity_pdus = cfg_.rmt_queue_pdus;
  qc.mark_threshold = cfg_.rmt_ecn_threshold;
  p.queue.configure(qc);
  ports_.push_back(std::move(p));
  return static_cast<relay::PortIndex>(ports_.size() - 1);
}

void Ipcp::start_port(relay::PortIndex idx) {
  if (idx >= ports_.size()) return;
  ports_[idx].last_heard = sched().now();
  send_hello(idx);
}

void Ipcp::send_hello(relay::PortIndex idx, rib::RiepOp op) {
  if (!enrolled_) return;
  Port& p = ports_[idx];
  p.hello_sent = true;
  BufWriter w(32);
  put_addr(w, address_);
  w.put_u64(auth_token(kHelloNonce));
  w.put_lpstring(host_.node_name());
  send_mgmt(idx, {op, ObjClass::hello, 0, std::move(w).take()});
  // A lost hello would strand the adjacency half-open; repeat until the
  // peer is heard from. The timer lives in the port, so it dies with us.
  p.hello_timer = sched().schedule_after(kHelloRetry, [this, idx] {
    Port& pp = ports_[idx];
    if (enrolled_ && pp.carrier && !pp.peer_enrolled) send_hello(idx);
  });
}

void Ipcp::set_port_carrier(relay::PortIndex idx, bool up) {
  if (idx >= ports_.size()) return;
  Port& p = ports_[idx];
  if (p.carrier == up) return;
  p.carrier = up;
  if (up) {
    p.alive = true;
    p.last_heard = sched().now();
    // Hello retries pause while the carrier is down: resume them.
    if (p.hello_sent && !p.peer_enrolled) send_hello(idx);
  }
  port_changed(idx);
}

void Ipcp::port_ready(relay::PortIndex idx) { rmt_.drain(idx); }

void Ipcp::on_port_frame(relay::PortIndex idx, Packet&& frame) {
  if (idx >= ports_.size()) return;
  auto decoded = efcp::Pdu::decode_packet(std::move(frame));
  if (!decoded.ok()) {
    stats_.inc("drop_decode");
    return;
  }
  efcp::Pdu& pdu = decoded.value();
  Port& p = ports_[idx];
  p.last_heard = sched().now();

  if (pdu.pci.type == efcp::PduType::mgmt && pdu.pci.dest.is_null()) {
    handle_mgmt(idx, pdu);
    return;
  }
  // Everything with an address in it crosses the membership gate: a port
  // whose peer never authenticated gets silence, not errors (§6.1).
  if (!p.peer_enrolled) {
    stats_.inc("drop_unenrolled_port");
    return;
  }
  if (pdu.pci.dest == address_ && !address_.is_null()) {
    deliver_local(std::move(pdu));
    return;
  }
  // Relay: not ours, forward inside the DIF.
  if (pdu.pci.ttl == 0) {
    stats_.inc("drop_ttl");
    return;
  }
  --pdu.pci.ttl;
  // Per-DIF content-store policy: an interest that hits the local store
  // is answered from here and never continues toward the origin.
  if (cstore_ && pdu.pci.type == efcp::PduType::data &&
      content_store_filter(pdu))
    return;
  auto out = rmt_.fib_.lookup(pdu.pci.dest,
                              [this](relay::PortIndex i) { return port_up(i); });
  if (!out) {
    stats_.inc("drop_no_route");
    return;
  }
  ++*rmt_.c_relayed_;
  rmt_.egress(*out, std::move(pdu));
}

void Ipcp::deliver_local(efcp::Pdu&& pdu) {
  if (pdu.pci.type == efcp::PduType::mgmt) {
    auto m = rib::RiepMessage::decode(pdu.payload.view());
    if (!m.ok()) {
      stats_.inc("drop_decode");
      return;
    }
    const rib::RiepMessage& msg = m.value();
    switch (msg.obj_class) {
      case ObjClass::flow_req: fa_.on_flow_req(pdu.pci, msg); break;
      case ObjClass::flow_resp: fa_.on_flow_resp(pdu.pci, msg); break;
      case ObjClass::flow_release: fa_.on_flow_release(pdu.pci, msg); break;
      case ObjClass::flow_release_ack: fa_.on_flow_release_ack(pdu.pci, msg); break;
      case ObjClass::dir_upd:  // flat DIFs replicate names by Sync only
        if (cfg_.dir_hierarchical) apply_dir_update(msg);
        break;
      case ObjClass::dir_read: handle_dir_read(msg); break;
      case ObjClass::dir_read_reply: handle_dir_read_reply(msg); break;
      case ObjClass::dir_inval: handle_dir_inval(msg); break;
      default: break;
    }
    return;
  }
  // Data / ack: demultiplex on the destination CEP — a probe of the
  // live-CEP table and a vector index, not a map walk; this is the
  // per-PDU hot path.
  auto* rec = fa_.by_cep(pdu.pci.dest_cep);
  if (rec == nullptr || !rec->conn) {
    stats_.inc("drop_no_cep");
    return;
  }
  rec->conn->on_pdu(pdu.pci, std::move(pdu.payload));
}

bool Ipcp::content_store_filter(efcp::Pdu& pdu) {
  // Non-content traffic must fall through untouched — the magic peek
  // keeps the common relay path at a 5-byte compare.
  if (!content::looks_like_content(pdu.payload.view())) return false;
  auto decoded = content::decode(pdu.payload.view());
  if (!decoded.ok()) return false;
  const content::Message& msg = decoded.value();
  content::ObjectKey key{msg.name, msg.object_id};

  if (msg.type == content::MsgType::interest) {
    const Bytes* obj = cstore_->lookup(key);
    if (obj == nullptr) return false;  // miss: continue toward the origin
    // Answer from here wearing the origin's endpoint identity — the
    // interest's (src, dest) and CEP pair swapped, its sequence number
    // echoed. On the unreliable class content flows use, the client
    // cannot tell this reply from the origin's; the cache stays
    // invisible above the DIF. TTL restarts: the reply is a fresh PDU
    // originated by this IPCP.
    Bytes reply_bytes =
        content::encode_data(msg.request_id, msg.name, msg.object_id,
                             BytesView{*obj});
    efcp::Pdu reply;
    reply.pci.type = efcp::PduType::data;
    reply.pci.qos_id = pdu.pci.qos_id;
    reply.pci.dest = pdu.pci.src;
    reply.pci.src = pdu.pci.dest;
    reply.pci.dest_cep = pdu.pci.src_cep;
    reply.pci.src_cep = pdu.pci.dest_cep;
    reply.pci.seq = pdu.pci.seq;
    reply.payload = Packet::with_headroom(kDefaultHeadroom, BytesView{reply_bytes});
    stats_.inc("cs_replies");
    rmt_.send(std::move(reply));
    return true;  // the interest stops here
  }
  // A data PDU passing through is an eviction-policy-priced chance to
  // serve the next interest locally; it still continues to its
  // requester. Nacks are not cached (negative caching is a policy this
  // DIF does not run).
  if (msg.type == content::MsgType::data)
    cstore_->insert(key, msg.object);
  return false;
}

// ---------------------- management dispatch ----------------------

void Ipcp::send_mgmt(relay::PortIndex idx, const rib::RiepMessage& m) {
  if (idx >= ports_.size()) return;
  if (m.obj_class == ObjClass::hello) {
    ++*c_hellos_sent_;
  } else if (m.obj_class == ObjClass::keepalive) {
    ++*c_keepalives_sent_;
  } else if (carries_lsdb(m)) {
    ++*c_lsus_flooded_;
  } else {
    ++*c_riep_sent_;
    if (m.obj_class == ObjClass::join_req) stats_.inc("join_requests_sent");
  }
  efcp::Pdu pdu;
  pdu.pci.type = efcp::PduType::mgmt;
  pdu.pci.src = address_;
  pdu.pci.dest = naming::Address{};  // port-local
  pdu.payload = mgmt_payload(m);
  *c_mgmt_bytes_ += pdu.payload.view().size();
  rmt_.egress(idx, std::move(pdu));
}

void Ipcp::send_routed_mgmt(naming::Address dest, const rib::RiepMessage& m) {
  stats_.inc("riep_sent");
  efcp::Pdu pdu;
  pdu.pci.type = efcp::PduType::mgmt;
  pdu.pci.src = address_;
  pdu.pci.dest = dest;
  pdu.payload = mgmt_payload(m);
  *c_mgmt_bytes_ += pdu.payload.view().size();
  rmt_.send(std::move(pdu));
}

void Ipcp::handle_mgmt(relay::PortIndex idx, const efcp::Pdu& pdu) {
  auto decoded = rib::RiepMessage::decode(pdu.payload.view());
  if (!decoded.ok()) {
    stats_.inc("drop_decode");
    return;
  }
  const rib::RiepMessage& m = decoded.value();
  Port& p = ports_[idx];

  switch (m.obj_class) {
    case ObjClass::hello:
      handle_hello(idx, m);
      return;
    case ObjClass::join_req:
    case ObjClass::join_challenge:
    case ObjClass::join_resp:
    case ObjClass::join_accept:
    case ObjClass::join_reject:
      handle_join_msg(idx, m);
      return;
    case ObjClass::sync:
      // From a member, or from my sponsor ahead of its JoinAccept.
      if (!p.peer_enrolled && !joining_via(idx)) break;
      if (carries_lsdb(m)) ++*c_lsus_received_;
      (void)apply_sync(idx, m);
      return;
    default:
      break;
  }
  if (!p.peer_enrolled) {
    // Non-members only get to talk enrollment.
    stats_.inc("drop_unenrolled_port");
  } else if (m.obj_class == ObjClass::keepalive) {
    handle_keepalive(idx);
  } else if (m.obj_class == ObjClass::bye) {
    handle_bye(idx);
  }
}

void Ipcp::handle_hello(relay::PortIndex idx, const rib::RiepMessage& m) {
  if (!enrolled_) return;
  Port& p = ports_[idx];
  BufReader r(BytesView{m.value});
  naming::Address addr = get_addr(r);
  std::uint64_t token = r.get_u64();
  (void)r.get_lpstring();
  if (!r.ok()) return;
  if (cfg_.auth_policy != dif::AuthPolicy::none && token != auth_token(kHelloNonce)) {
    stats_.inc("hello_rejected");
    return;
  }
  bool changed = !p.peer_enrolled || p.peer != addr;
  p.peer = addr;
  p.peer_enrolled = true;
  p.alive = true;
  if (!p.hello_sent) {
    send_hello(idx);
  } else if (!changed && m.op == rib::RiepOp::create) {
    // The peer repeats its hello, so it never heard mine. Answer with a
    // reply, which is never answered: two members cannot ping-pong.
    send_hello(idx, rib::RiepOp::reply);
  }
  if (changed) port_changed(idx);
}

void Ipcp::handle_keepalive(relay::PortIndex idx) {
  Port& p = ports_[idx];
  if (!p.alive) {
    p.alive = true;
    port_changed(idx);
  }
}

void Ipcp::handle_bye(relay::PortIndex idx) {
  Port& p = ports_[idx];
  if (!p.peer.is_null()) {
    dir_.remove_at(p.peer);
    std::size_t n = dir_cache_.invalidate_at(p.peer);
    if (n != 0) stats_.inc("dir_cache_invalidations", n);
  }
  p.peer_enrolled = false;
  adjacency_changed();
}

// ---------------------------- routing ----------------------------

std::vector<naming::Address> Ipcp::live_neighbors() const {
  std::vector<naming::Address> out;
  for (const Port& p : ports_)
    if (usable(p)) out.push_back(p.peer);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Ipcp::rebuild_neighbor_ports() {
  // Step-2 bindings: *every* known attachment to a neighbor, live or not —
  // liveness is checked per-PDU at lookup time (late binding).
  std::map<naming::Address, std::vector<relay::PortIndex>> all;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Port& p = ports_[i];
    if (p.peer_enrolled && !p.peer.is_null())
      all[p.peer].push_back(static_cast<relay::PortIndex>(i));
  }
  for (auto& [addr, ports] : all) rmt_.fib_.set_neighbor_ports(addr, ports);
}

void Ipcp::adjacency_changed() {
  if (departed_) return;
  rebuild_neighbor_ports();
  std::vector<naming::Address> now_set = live_neighbors();
  schedule_spf();
  if (now_set == last_neighbor_set_) return;
  last_neighbor_set_ = std::move(now_set);
  if (lsu_timer_.armed() || !enrolled_) return;
  lsu_timer_ = sched().schedule_after(kLsuDebounce, [this] { originate_lsu(); });
}

void Ipcp::originate_lsu() {
  if (!enrolled_ || address_.is_null()) return;
  ++lsu_seq_;
  const std::vector<naming::Address> neighbors = live_neighbors();
  lsdb_.put(address_, lsu_seq_, neighbors);
  ++*c_lsus_originated_;
  SyncPacker pk;
  pk.add_lsu(address_, lsu_seq_, neighbors);
  flood(std::move(pk).take(), std::nullopt);
  schedule_spf();
}

void Ipcp::flood(const rib::RiepMessage& m, std::optional<relay::PortIndex> except) {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    auto idx = static_cast<relay::PortIndex>(i);
    if (except && *except == idx) continue;
    if (usable(ports_[i])) send_mgmt(idx, m);
  }
}

void Ipcp::flood(std::vector<Bytes> chunks, std::optional<relay::PortIndex> except) {
  for (Bytes& chunk : chunks) flood(sync_msg(std::move(chunk)), except);
}

std::optional<naming::Address> Ipcp::apply_lsu(BufReader& r) {
  naming::Address origin = get_addr(r);
  std::uint64_t seq = r.get_u64();
  std::uint16_t n = r.get_u16();
  BufReader list(r.get_bytes(4 * std::size_t{n}));
  if (!r.ok() || origin.is_null() || origin == address_) return std::nullopt;
  // A re-flood, or a Sync record the peer already has, is recognized from
  // (origin, seq) alone, before its neighbor list is decoded: it never
  // re-floods, never touches the LSDB, never schedules SPF.
  const std::optional<routing::Lsdb::Entry> held = lsdb_.find(origin);
  if (held && seq <= held->seq && !(held->seq == 0 && seq == 0)) {
    ++*c_lsus_dup_suppressed_;
    return std::nullopt;
  }
  lsu_scratch_.clear();
  for (std::uint16_t i = 0; i < n; ++i) lsu_scratch_.push_back(get_addr(list));
  lsdb_.put(origin, seq, lsu_scratch_);
  return origin;
}

void Ipcp::schedule_spf() {
  if (spf_timer_.armed() || departed_) return;
  spf_timer_ = sched().schedule_after(kSpfDebounce, [this] { run_spf(); });
}

void Ipcp::run_spf() {
  if (!enrolled_ || address_.is_null()) return;
  ++*c_spf_runs_;

  routing::UnitSpf& spf = routing::UnitSpf::scratch();
  for (const Port& p : ports_)
    if (usable(p)) spf.add_link(p.peer);
  std::vector<routing::UnitSpf::Route>& routes = spf.solve(address_, lsdb_);
  // Every run re-derives every reachable destination; c9's SPF vtx/evt
  // and the benchmark's routing.spf_vertices read this count.
  *c_spf_vertices_ += routes.size();
  if (cfg_.aggregate_regions) aggregate_foreign_regions(routes, address_.region);
  rmt_.fib_.replace_routes(routes);
}

// --------------------------- keepalives ---------------------------

void Ipcp::keepalive_tick() {
  const rib::RiepMessage m{RiepOp::write, ObjClass::keepalive};
  bool changed = false;
  SimTime limit{cfg_.keepalive_interval.ns * kKeepaliveMisses};
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    Port& p = ports_[i];
    if (!p.peer_enrolled || !p.carrier) continue;
    if (p.alive && sched().now() - p.last_heard > limit) {
      p.alive = false;
      stats_.inc("keepalive_expired");
      changed = true;
      continue;
    }
    // A dead port keeps probing: when a path heals with no carrier
    // signal (an overlay's lower flow), the peer's keepalive revives it.
    send_mgmt(static_cast<relay::PortIndex>(i), m);
  }
  if (changed) adjacency_changed();
}

// --------------------------- enrollment ---------------------------

Result<void> Ipcp::enroll_via(relay::PortIndex idx) {
  if (idx >= ports_.size()) return {Err::invalid, "no such port"};
  if (enrolled_) return {Err::already_exists, "already enrolled"};
  departed_ = false;
  join_port_ = idx;
  join_attempts_ = 0;
  join_attempt(idx);
  return Ok();
}

void Ipcp::join_attempt(relay::PortIndex idx) {
  if (enrolled_) return;
  if (join_attempts_ >= kMaxJoinAttempts) {
    stats_.inc("join_gave_up");
    return;
  }
  ++join_attempts_;
  BufWriter w(32);
  w.put_lpstring(host_.node_name());
  w.put_lpstring(cfg_.auth_policy == dif::AuthPolicy::password ? cfg_.auth_secret : "");
  send_mgmt(idx, {RiepOp::start, ObjClass::join_req, 0, std::move(w).take()});

  join_timer_ = sched().schedule_after(kJoinTimeout, [this, idx] {
    if (!enrolled_) join_attempt(idx);
  });
}

void Ipcp::handle_join_msg(relay::PortIndex idx, const rib::RiepMessage& m) {
  Port& p = ports_[idx];
  BufReader r(BytesView{m.value});
  auto reject = [&](const char* why) {
    stats_.inc("joins_rejected");
    send_mgmt(idx, {RiepOp::reply, ObjClass::join_reject, 0, to_bytes(why)});
  };

  switch (m.obj_class) {
    case ObjClass::join_req: {
      if (!enrolled_) return;  // only members admit
      stats_.inc("join_requests_received");
      (void)r.get_lpstring();  // the joiner's node name
      std::string offered_secret = r.get_lpstring();
      if (!r.ok()) return;
      if (cfg_.auth_policy == dif::AuthPolicy::none) {
        admit_joiner(idx);
      } else if (cfg_.auth_policy == dif::AuthPolicy::password) {
        if (offered_secret == cfg_.auth_secret) {
          admit_joiner(idx);
        } else {
          reject("bad credentials");
        }
      } else {  // psk_challenge
        std::uint64_t nonce = splitmix64(++nonce_counter_ ^
                                         (static_cast<std::uint64_t>(dif_id_) << 32) ^
                                         address_.key());
        p.join_nonce = nonce;
        BufWriter w(8);
        w.put_u64(nonce);
        send_mgmt(idx, {RiepOp::reply, ObjClass::join_challenge, 0, std::move(w).take()});
      }
      return;
    }

    case ObjClass::join_challenge: {
      // Answer only a challenge we solicited, on the port we are joining
      // through — anything else is a chosen-nonce oracle for our secret.
      if (!joining_via(idx)) return;
      std::uint64_t nonce = r.get_u64();
      if (!r.ok()) return;
      BufWriter w(32);
      w.put_lpstring(host_.node_name());
      w.put_u64(auth_token(nonce));
      send_mgmt(idx, {RiepOp::reply, ObjClass::join_resp, 0, std::move(w).take()});
      return;
    }

    case ObjClass::join_resp: {
      if (!enrolled_ || !p.join_nonce) return;
      (void)r.get_lpstring();  // the joiner's node name
      std::uint64_t proof = r.get_u64();
      if (!r.ok()) return;
      std::uint64_t expect = auth_token(*p.join_nonce);
      p.join_nonce.reset();
      if (proof == expect) {
        admit_joiner(idx);
      } else {
        reject("challenge failed");
      }
      return;
    }

    case ObjClass::join_accept:
      // Accept only on the port our join is actually in progress on; a
      // spoofed accept must not hand us an address and topology.
      if (joining_via(idx)) complete_enrollment(idx, m);
      return;

    case ObjClass::join_reject:
      // Same gating as accept/challenge: a spoofed reject from another port
      // must not cancel or redirect the enrollment in progress.
      if (!joining_via(idx)) return;
      stats_.inc("join_rejects_received");
      // Re-arming the join timer supersedes the pending timeout retry.
      join_timer_ = sched().schedule_after(kJoinRetryGap, [this, idx] {
        if (!enrolled_) join_attempt(idx);
      });
      return;

    default:
      return;
  }
}

void Ipcp::admit_joiner(relay::PortIndex idx) {
  Port& p = ports_[idx];
  naming::Address assigned = host_.allocate_dif_address(cfg_.name);
  stats_.inc("joins_accepted");
  stats_.inc("members_admitted");
  p.peer = assigned;
  p.peer_enrolled = true;
  p.alive = true;

  // The accept carries the first Sync chunk, and any further chunks go
  // ahead of it: the joiner applies every name version the DIF holds
  // before it publishes its own apps, which must outrank them.
  std::vector<Bytes> chunks = sync_chunks(assigned);
  if (chunks.empty()) chunks.push_back(Bytes{0, 0, 0, 0});  // no names, no records
  for (std::size_t i = 1; i < chunks.size(); ++i)
    send_mgmt(idx, sync_msg(std::move(chunks[i])));
  BufWriter w(8 + chunks.front().size());
  put_addr(w, assigned);
  put_addr(w, address_);
  w.put_bytes(BytesView{chunks.front()});
  send_mgmt(idx, {RiepOp::reply, ObjClass::join_accept, 0, std::move(w).take()});
  adjacency_changed();
}

void Ipcp::complete_enrollment(relay::PortIndex idx, const rib::RiepMessage& m) {
  Port& p = ports_[idx];
  BufReader r(BytesView{m.value});
  naming::Address assigned = get_addr(r);
  naming::Address member = get_addr(r);
  // The DIF's versions before my apps.
  if (!r.ok() || !apply_sync(idx, sync_msg(r.get_bytes(r.remaining()).to_bytes())))
    return;
  join_timer_.cancel();  // the pending timeout retry
  stats_.inc("joins_completed");
  p.peer = member;
  p.peer_enrolled = true;
  p.alive = true;
  bootstrap_member(assigned);
  // Announce whatever was registered locally before we had an address.
  for (const auto& [app, handler] : fa_.apps_) publish_app(app);
  adjacency_changed();
}

void Ipcp::leave(bool teardown_flows) {
  if (!enrolled_) return;
  fa_.close_all(teardown_flows);
  // Each query in flight ends as a miss, so its callers hear exactly once
  // (a flow allocation then retries until its deadline).
  std::map<naming::AppName, PendingResolve> queries = std::move(pending_resolve_);
  pending_resolve_.clear();
  for (auto& [app, q] : queries)
    for (ResolveCb& cb : q.cbs) cb(std::nullopt);
  const rib::RiepMessage bye{RiepOp::stop, ObjClass::bye};
  for (std::size_t i = 0; i < ports_.size(); ++i)
    if (usable(ports_[i])) send_mgmt(static_cast<relay::PortIndex>(i), bye);
  enrolled_ = false;
  departed_ = true;
  keepalive_timer_.cancel();
  dir_cache_.clear();
  dir_interest_.clear();
  stats_.inc("departures");
}

// --------------------------- directory ---------------------------

void Ipcp::publish_dir_change(const naming::AppName& app, bool bound) {
  // The publisher's next version of the name beats every binding and
  // tombstone this member has seen, and the clock beats every version
  // published before now, even one this member never saw: a hierarchical
  // authority hears from both homes of a moved name, a publisher only
  // from itself. Members share the simulator's clock; a real DIF would
  // need loosely synchronised ones.
  auto now = static_cast<std::uint64_t>(sched().now().ns);
  naming::Directory::Stamp s{std::max(dir_.stamp_of(app).version + 1, now), address_};
  std::optional<naming::Address> at;
  if (bound) at = address_;
  (void)apply_dir_record(app, at, s);
  if (cfg_.dir_hierarchical) {
    // Registration state lives only on the resolver chain (region
    // anchor + root); nobody floods, everyone else resolves on demand.
    send_targeted_dir_update(app, s, at);
    return;
  }
  SyncPacker pk;
  pk.add_dir(app, s, at);
  flood(std::move(pk).take(), std::nullopt);
}

void Ipcp::publish_app(const naming::AppName& app) {
  if (!enrolled_ || address_.is_null()) return;
  publish_dir_change(app, true);
  // Registration can race adjacency bring-up (the flood reaches only
  // usable ports); re-announce with fresh versions until the DIF has had
  // time to converge.
  announce_timers_.erase(
      std::remove_if(announce_timers_.begin(), announce_timers_.end(),
                     [](const sim::Timer& t) { return !t.armed(); }),
      announce_timers_.end());
  for (double ms : {20.0, 100.0, 500.0}) {
    announce_timers_.push_back(
        sched().schedule_after(SimTime::from_ms(ms), [this, app] {
          if (enrolled_ &&
              dir_.lookup(app) == std::optional<naming::Address>{address_})
            publish_dir_change(app, true);
        }));
  }
}

void Ipcp::unpublish_app(const naming::AppName& app) { publish_dir_change(app, false); }

bool Ipcp::apply_dir_record(const naming::AppName& app, std::optional<naming::Address> at,
                            naming::Directory::Stamp s) {
  std::optional<naming::Address> old;
  if (!dir_.apply(app, at, s, &old)) return false;
  // Losing (or rebinding) an entry kills every cached copy of the old
  // binding: mine, and via an authority's interest list everyone who
  // resolved the name through me — mobility costs O(who actually asked),
  // not O(members). Flat DIFs cache nothing and are never asked.
  if (old && old != at) cascade_dir_inval(app, *old);
  return true;
}

void Ipcp::apply_dir_update(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  DirRecord d = get_dir_record(r);
  if (!r.ok() || d.stamp.origin.is_null() || d.stamp.origin == address_) return;
  (void)apply_dir_record(d.app, d.at, d.stamp);
}

// ------------------------- replicated state -------------------------
//
// The LSDB and the stamped directory are the DIF's replicated state, and
// Sync is the one message that carries it: an origination floods a Sync
// of one record, and a peer met for the first time (hello), admitted
// (enrollment) or back after an outage (carrier return, keepalive
// revival) gets all of mine, since it missed every flood sent before —
// directory names (none under hierarchical naming, which replicates
// none), then LSDB records. What a receiver already holds stops at its
// (origin, seq) guard or version stamps; what is news floods on as one
// Sync per Sync received, never one per record.

void Ipcp::port_changed(relay::PortIndex idx) {
  const Port& p = ports_[idx];
  bool met = enrolled_ && usable(p) &&
             std::find(last_neighbor_set_.begin(), last_neighbor_set_.end(), p.peer) ==
                 last_neighbor_set_.end();
  adjacency_changed();
  if (!met) return;
  for (Bytes& chunk : sync_chunks(p.peer)) send_mgmt(idx, sync_msg(std::move(chunk)));
}

std::vector<Bytes> Ipcp::sync_chunks(naming::Address peer) const {
  SyncPacker pk;
  if (!cfg_.dir_hierarchical) {
    for (const auto& [app, rec] : dir_.entries()) pk.add_dir(app, rec.stamp, rec.at);
  }
  // The peer ignores its own record, and mine is re-originated for the
  // new adjacency anyway.
  for (const routing::Lsdb::Entry& rec : lsdb_) {
    if (rec.origin == peer || rec.origin == address_) continue;
    pk.add_lsu(rec.origin, rec.seq, rec.neighbors);
  }
  return std::move(pk).take();
}

bool Ipcp::apply_sync(relay::PortIndex from, const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  std::uint16_t ndir = r.get_u16();
  std::uint16_t nlsu = r.get_u16();
  // News floods on: the Sync as it arrived when every record was news,
  // else the news re-packed (a partly stale hand-over).
  std::vector<DirRecord> dir_news;
  std::vector<naming::Address> lsu_news;
  for (std::uint16_t i = 0; i < ndir && r.ok(); ++i) {
    DirRecord d = get_dir_record(r);
    if (!r.ok() || d.stamp.origin.is_null() || d.stamp.origin == address_) continue;
    if (apply_dir_record(d.app, d.at, d.stamp))
      dir_news.push_back(std::move(d));
    else
      ++*c_dir_dups_suppressed_;
  }
  for (std::uint16_t i = 0; i < nlsu && r.ok(); ++i)
    if (auto origin = apply_lsu(r)) lsu_news.push_back(*origin);
  if (!lsu_news.empty()) schedule_spf();

  std::size_t news = dir_news.size() + lsu_news.size();
  if (r.ok() && r.remaining() == 0 && news == std::size_t{ndir} + nlsu) {
    if (news != 0) flood(m, from);
  } else if (news != 0) {
    SyncPacker pk;
    for (const DirRecord& d : dir_news) pk.add_dir(d.app, d.stamp, d.at);
    for (naming::Address origin : lsu_news) {
      const routing::Lsdb::Entry rec = *lsdb_.find(origin);
      pk.add_lsu(origin, rec.seq, rec.neighbors);
    }
    flood(std::move(pk).take(), from);
  }
  return r.ok();
}

// ---------------- hierarchical directory resolution ----------------
//
// Registrations go only to the resolver chain (region anchor + DIF
// root); everyone else resolves a miss by asking up, caching the answer
// with a TTL. Control cost per registration is O(chain length), not
// O(members) — the tentpole's naming layer.

naming::Address Ipcp::resolver_parent() const {
  naming::Address anchor = dir_anchor();
  if (address_ != anchor) return anchor;
  if (address_ != kDirRoot) return kDirRoot;
  return naming::Address{};  // I am the top of the chain
}

void Ipcp::resolve_name(const naming::AppName& app, ResolveCb cb) {
  if (auto at = dir_.lookup(app)) {
    cb(at);
    return;
  }
  if (!cfg_.dir_hierarchical || !enrolled_) {
    cb(std::nullopt);
    return;
  }
  if (auto at = dir_cache_.lookup(app, sched().now())) {
    stats_.inc("dir_cache_hits");
    cb(at);
    return;
  }
  stats_.inc("dir_cache_misses");
  if (resolver_parent().is_null()) {
    // Authoritative miss: nobody above me to ask.
    cb(std::nullopt);
    return;
  }
  start_dir_query(app, std::move(cb));
}

void Ipcp::start_dir_query(const naming::AppName& app, ResolveCb cb) {
  auto it = pending_resolve_.find(app);
  if (it != pending_resolve_.end()) {
    it->second.cbs.push_back(std::move(cb));
    return;  // one query in flight per name
  }
  PendingResolve& pr = pending_resolve_[app];
  pr.cbs.push_back(std::move(cb));
  pr.attempts = 0;
  send_dir_query(app);
}

void Ipcp::send_dir_query(const naming::AppName& app) {
  auto it = pending_resolve_.find(app);
  if (it == pending_resolve_.end()) return;
  PendingResolve& pr = it->second;
  if (pr.attempts >= kMaxDirQueryAttempts) {
    finish_dir_query(app, std::nullopt);
    return;
  }
  ++pr.attempts;
  stats_.inc("dir_queries_sent");
  BufWriter w(8 + app.to_string().size());
  put_addr(w, address_);
  put_app(w, app);
  send_routed_mgmt(resolver_parent(),
                   {RiepOp::read, ObjClass::dir_read, 0, std::move(w).take()});
  pr.timer =
      sched().schedule_after(kDirQueryRetry, [this, app] { send_dir_query(app); });
}

void Ipcp::finish_dir_query(const naming::AppName& app,
                            std::optional<naming::Address> result) {
  auto it = pending_resolve_.find(app);
  if (it == pending_resolve_.end()) return;
  it->second.timer.cancel();
  std::vector<ResolveCb> cbs = std::move(it->second.cbs);
  pending_resolve_.erase(it);
  for (ResolveCb& cb : cbs) cb(result);
}

void Ipcp::send_targeted_dir_update(const naming::AppName& app,
                                    naming::Directory::Stamp s,
                                    std::optional<naming::Address> at) {
  BufWriter w(dir_record_size(app));
  put_dir_record(w, app, s, at);
  const rib::RiepMessage m{at ? RiepOp::create : RiepOp::remove, ObjClass::dir_upd, 0,
                           std::move(w).take()};
  stats_.inc("dir_targeted_updates");
  naming::Address anchor = dir_anchor();
  if (anchor != address_ && !anchor.is_null()) send_routed_mgmt(anchor, m);
  if (kDirRoot != address_ && kDirRoot != anchor) send_routed_mgmt(kDirRoot, m);
}

void Ipcp::send_dir_inval(naming::Address to, const naming::AppName& app,
                          naming::Address at) {
  BufWriter w(16 + app.to_string().size());
  put_addr(w, address_);
  put_app(w, app);
  put_addr(w, at);
  stats_.inc("dir_invals_originated");
  send_routed_mgmt(to, {RiepOp::remove, ObjClass::dir_inval, 0, std::move(w).take()});
}

void Ipcp::cascade_dir_inval(const naming::AppName& app, naming::Address at) {
  if (dir_cache_.invalidate_if_at(app, at))
    stats_.inc("dir_cache_invalidations");
  auto it = dir_interest_.find(app);
  if (it == dir_interest_.end()) return;
  // Interest older than the cache TTL cannot correspond to a live
  // cached entry any more — let it age out silently.
  SimTime now = sched().now();
  for (const auto& [who, when] : it->second)
    if (now - when < kDirCacheTtl && who != address_)
      send_dir_inval(who, app, at);
  dir_interest_.erase(it);
}

void Ipcp::handle_dir_inval(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::Address origin = get_addr(r);
  naming::AppName app = get_app(r);
  naming::Address at = get_addr(r);
  if (!r.ok() || origin.is_null()) return;
  if (origin == address_) return;
  // Kill the local cached copy and pass the invalidation further down
  // the query tree (whoever resolved through this node). An authority's
  // own binding changes only by a stamped record.
  cascade_dir_inval(app, at);
}

void Ipcp::handle_dir_read(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::Address requester = get_addr(r);
  naming::AppName app = get_app(r);
  if (!r.ok() || requester.is_null() || requester == address_) return;
  stats_.inc("dir_queries_served");
  // Remember who asked: a later mobility event invalidates exactly these
  // caches instead of flooding. Bounded per name; oldest interest falls
  // off first (its cache entry expires by TTL anyway).
  auto& interest = dir_interest_[app];
  interest[requester] = sched().now();
  if (interest.size() > kMaxDirInterest) {
    auto oldest = interest.begin();
    for (auto iit = interest.begin(); iit != interest.end(); ++iit)
      if (iit->second < oldest->second) oldest = iit;
    interest.erase(oldest);
  }
  // Resolve locally or escalate up my own chain; either way the reply
  // goes back to the immediate requester, which caches it — so an
  // answer warms every hop on its way down.
  resolve_name(app, [this, requester, app](std::optional<naming::Address> at) {
    BufWriter w(16 + app.to_string().size());
    put_app(w, app);
    w.put_u8(at ? 1 : 0);
    put_addr(w, at ? *at : naming::Address{});
    send_routed_mgmt(requester,
                     {RiepOp::reply, ObjClass::dir_read_reply, 0, std::move(w).take()});
  });
}

void Ipcp::handle_dir_read_reply(const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::AppName app = get_app(r);
  std::uint8_t found = r.get_u8();
  naming::Address at = get_addr(r);
  if (!r.ok()) return;
  std::optional<naming::Address> res;
  if (found != 0 && !at.is_null()) {
    res = at;
    dir_cache_.insert(app, at, sched().now());
  }
  finish_dir_query(app, res);
}

// ============================== Rmt ==============================

Rmt::Rmt(Ipcp& self)
    : self_(self),
      c_pdus_out_(self.stats_.slot("pdus_out")),
      c_relayed_(self.stats_.slot("relayed")) {}

void Rmt::send(efcp::Pdu&& pdu) {
  ++*c_pdus_out_;
  if (pdu.pci.dest == self_.address_ && !pdu.pci.dest.is_null()) {
    self_.deliver_local(std::move(pdu));
    return;
  }
  auto out = fib_.lookup(pdu.pci.dest,
                         [this](relay::PortIndex i) { return self_.port_up(i); });
  if (!out) {
    self_.stats_.inc("drop_no_route");
    return;
  }
  egress(*out, std::move(pdu));
}

Result<void> Rmt::egress_via(relay::PortIndex port, efcp::Pdu&& pdu) {
  if (port >= self_.ports_.size()) return {Err::invalid, "no such port"};
  egress(port, std::move(pdu));
  return Ok();
}

bool Rmt::would_accept(naming::Address dest, efcp::QosId qos) const {
  auto out = fib_.lookup(
      dest, [this](relay::PortIndex i) { return self_.port_up(i); });
  // No route: the write will be dropped (and counted) downstream, not
  // blocked — blocking on an unroutable destination would never wake.
  if (!out) return true;
  return !self_.ports_[*out].queue.full(class_priority(qos));
}

std::uint8_t Rmt::class_priority(efcp::QosId q) const {
  for (const auto& c : self_.cfg_.cubes)
    if (c.id == q) return c.priority;
  return q;
}

void Rmt::egress(relay::PortIndex port, efcp::Pdu&& pdu) {
  Ipcp::Port& p = self_.ports_[port];
  std::uint8_t prio = class_priority(pdu.pci.qos_id);
  // Congestion is detected where the resource lives: a class queue past
  // its marking threshold stamps the ECN bit on the data PDUs it
  // *admits* (a tail-dropped PDU is neither stamped nor counted), and
  // the DIF's own EFCP senders back off (scoped, not end-to-end). The
  // mark must go on before the encode below freezes the PCI.
  // A full class queue tail-drops before the encode is paid (full
  // implies non-empty, so the direct-tx fast path below is unreachable
  // anyway); rmt_drops counts every tail drop.
  if (p.queue.full(prio)) {
    self_.stats_.inc("rmt_drops");
    return;
  }
  if (pdu.pci.type == efcp::PduType::data && p.queue.should_mark(prio)) {
    pdu.pci.flags |= efcp::kFlagEcn;
    self_.stats_.inc("ecn_marked");
  }
  // Encode exactly once: the PCI goes into the payload's headroom in
  // place; queueing and drain retries reuse the same frame.
  Packet frame = std::move(pdu).encode_packet();
  if (p.queue.empty()) {
    if (p.tx(frame)) return;
  }
  // Cannot be refused: the queue was not full above, and nothing since
  // has filled it.
  (void)p.queue.push(prio, frame);
  // The frame waits for port_ready: the attachment that refused it says
  // when it can take more (a wire's on_ready, a lower flow's on_writable).
}

void Rmt::drain(relay::PortIndex port) {
  Ipcp::Port& p = self_.ports_[port];
  while (!p.queue.empty()) {
    if (!p.tx(p.queue.front().frame)) break;
    p.queue.pop();
  }
}

// ========================= FlowAllocator =========================

Result<void> FlowAllocator::register_app(const naming::AppName& app,
                                         flow::AcceptFn accept) {
  auto [it, inserted] = apps_.emplace(app, std::move(accept));
  if (!inserted) return {Err::already_exists, app.to_string()};
  self_.stats_.inc("apps_registered");
  self_.publish_app(app);
  return Ok();
}

Result<void> FlowAllocator::unregister_app(const naming::AppName& app) {
  if (apps_.erase(app) == 0) return {Err::not_found, app.to_string()};
  self_.stats_.inc("apps_unregistered");
  self_.unpublish_app(app);
  return Ok();
}

bool FlowAllocator::can_resolve(const naming::AppName& app) const {
  // A hierarchical DIF can resolve anything registered *somewhere* in it
  // — the answer just isn't local yet. Claim yes and let the allocation
  // path query up; a true miss fails at the allocation deadline.
  if (self_.cfg_.dir_hierarchical && self_.enrolled_) return true;
  return self_.dir_.lookup(app).has_value();
}

const flow::QosCube* FlowAllocator::find_cube(const flow::QosSpec& spec) const {
  for (const auto& c : self_.cfg_.cubes)
    if (!spec.cube_hint.empty() ? c.name == spec.cube_hint
                                : c.reliable == spec.reliable)
      return &c;
  return nullptr;
}

bool FlowAllocator::can_satisfy(const flow::QosSpec& spec) const {
  return find_cube(spec) != nullptr;
}

FlowAllocator::~FlowAllocator() {
  // Detach surviving app handles: their write/deallocate ops capture
  // `this`, which is about to die. finish_close normally does this per
  // flow; teardown does it wholesale.
  for (auto& rec : flows_) {
    if (!rec || !rec->shared) continue;
    rec->shared->do_write = nullptr;
    rec->shared->do_deallocate = nullptr;
  }
}

void FlowAllocator::allocate(const naming::AppName& local,
                             const naming::AppName& remote,
                             const flow::QosSpec& spec,
                             flow::AllocateCallback cb) {
  // Resolve the QoS cube first: asking for a class the DIF does not offer
  // is an immediate, local, *typed* failure — a cube_hint naming a class
  // this DIF lacks must not silently fall back to flag matching.
  const flow::QosCube* cube = find_cube(spec);
  if (cube == nullptr) {
    if (!spec.cube_hint.empty()) {
      self_.stats_.inc("alloc_no_such_cube");
      cb({Err::no_such_cube, "DIF " + self_.cfg_.name.str() +
                                 " offers no QoS cube named '" +
                                 spec.cube_hint + "'"});
    } else {
      cb({Err::not_found,
          "no matching QoS cube in DIF " + self_.cfg_.name.str()});
    }
    return;
  }
  std::uint32_t invoke = next_invoke_++;
  Pending pend;
  pend.local = local;
  pend.remote = remote;
  pend.cb = std::move(cb);
  pend.cube = *cube;
  pend.local_cep = fresh_cep();
  pend.deadline = self_.sched().now() + kAllocDeadline;
  pending_.emplace(invoke, std::move(pend));
  self_.stats_.inc("alloc_requests");
  try_pending(invoke);
}

void FlowAllocator::try_pending(std::uint32_t invoke_id) {
  auto it = pending_.find(invoke_id);
  if (it == pending_.end()) return;
  // Sending before enrollment completes would stamp the request with a
  // stale (or null) source address; wait like a directory miss.
  if (!self_.enrolled_ || self_.address_.is_null()) {
    resolved(invoke_id, std::nullopt);
    return;
  }
  self_.resolve_name(it->second.remote,
                     [this, invoke_id](std::optional<naming::Address> at) {
                       resolved(invoke_id, at);
                     });
}

void FlowAllocator::resolved(std::uint32_t invoke_id, std::optional<naming::Address> at) {
  auto it = pending_.find(invoke_id);
  if (it == pending_.end()) return;
  Pending& pend = it->second;
  if (!at) {
    if (self_.sched().now() >= pend.deadline) {
      finish_pending(invoke_id,
                     {Err::not_found, "no directory entry for " +
                                          pend.remote.to_string() + " in " +
                                          self_.cfg_.name.str()});
      return;
    }
    pend.timer = self_.sched().schedule_after(
        kAllocRetry, [this, invoke_id] { try_pending(invoke_id); });
    return;
  }

  BufWriter w(64);
  put_addr(w, self_.address_);
  w.put_u16(pend.local_cep);
  w.put_u8(pend.cube.id);
  w.put_lpstring(pend.cube.name);
  put_app(w, pend.local);
  put_app(w, pend.remote);
  self_.send_routed_mgmt(
      *at, {RiepOp::create, ObjClass::flow_req, invoke_id, std::move(w).take()});

  // Re-try until answered: the request may race routing convergence or
  // the destination may have moved. The timer dies with the Pending, so
  // an answered request cannot fire a stale resend.
  pend.timer = self_.sched().schedule_after(kAllocResend, [this, invoke_id] {
    auto pit = pending_.find(invoke_id);
    if (pit == pending_.end()) return;
    if (self_.sched().now() >= pit->second.deadline) {
      finish_pending(invoke_id, {Err::timeout, "flow allocation timed out"});
      return;
    }
    try_pending(invoke_id);
  });
}

void FlowAllocator::finish_pending(std::uint32_t invoke_id,
                                   Result<flow::FlowInfo> r) {
  auto it = pending_.find(invoke_id);
  if (it == pending_.end()) return;
  flow::AllocateCallback cb = std::move(it->second.cb);
  pending_.erase(it);
  if (!r.ok()) self_.stats_.inc("alloc_failed");
  cb(std::move(r));
}

flow::FlowInfo FlowAllocator::open_flow(const naming::AppName& local,
                                        const naming::AppName& remote,
                                        naming::Address peer, const flow::QosCube& cube,
                                        efcp::CepId local_cep, efcp::CepId remote_cep) {
  auto rec = std::make_unique<FlowRec>();
  rec->port = self_.host_.allocate_port_id();
  rec->local = local;
  rec->remote = remote;
  rec->peer = peer;
  rec->cube = cube;
  rec->local_cep = local_cep;
  rec->remote_cep = remote_cep;
  create_connection(*rec);
  by_cep_.put(local_cep, rec->port);

  flow::FlowInfo info;
  info.port = rec->port;
  info.cube = cube;
  info.local = local;
  info.remote = remote;
  info.dif = self_.cfg_.name;
  insert_rec(std::move(rec));
  return info;
}

void FlowAllocator::create_connection(FlowRec& rec) {
  // The policy name selects the mechanism profile (timers, windows) and
  // the cube's dtcp_policy the transmission-control discipline; the
  // cube's declared flags are authoritative for the service semantics —
  // flow matching reads the flags, so they must win over the string.
  // A misconfigured cube (unknown name) is counted and falls back to
  // defaults: the flow still works, but the operator can see the typo.
  efcp::EfcpPolicies pol;
  auto named = efcp::EfcpPolicies::from_policy_name(rec.cube.efcp_policy);
  if (named.ok()) {
    pol = named.value();
  } else {
    self_.stats_.inc("efcp_policy_unknown");
  }
  if (!rec.cube.dtcp_policy.empty()) {
    if (!pol.set_tx_policy(rec.cube.dtcp_policy).ok())
      self_.stats_.inc("efcp_policy_unknown");
  }
  if (rec.cube.rate_pps > 0.0) pol.rate_pps = rec.cube.rate_pps;
  if (rec.cube.rate_burst_pdus > 0.0) pol.bucket_pdus = rec.cube.rate_burst_pdus;
  pol.reliable = rec.cube.reliable;
  pol.in_order = rec.cube.in_order;
  efcp::ConnectionId id;
  id.src = self_.address_;
  id.dst = rec.peer;
  id.src_cep = rec.local_cep;
  id.dst_cep = rec.remote_cep;
  id.qos = rec.cube.id;
  flow::PortId port = rec.port;
  rec.conn = std::make_unique<efcp::Connection>(
      self_.sched(), pol, id,
      [this](efcp::Pdu&& pdu) { self_.rmt_.send(std::move(pdu)); },
      [this, port](Packet&& sdu) {
        FlowRec* r = by_port(port);
        if (r == nullptr) return;
        deliver_sdu(*r, std::move(sdu));
      });
}

void FlowAllocator::deliver_sdu(FlowRec& rec, Packet&& sdu) {
  if (rec.sink) {
    // Internal consumer (an overlay port riding this flow): hand the
    // Packet through — the recursion stays zero-copy.
    rec.sink(std::move(sdu));
    return;
  }
  if (rec.shared) {
    flow::detail::FlowShared& sh = *rec.shared;
    if (sh.rx.size() >= sh.rx_cap) {
      // The app is not reading: bounded queue, counted drop. The loss is
      // charged to the reader here, never hidden in unbounded memory.
      self_.stats_.inc("app_rx_dropped");
      return;
    }
    sh.push_rx(std::move(sdu).take_bytes());
    return;
  }
  self_.stats_.inc("sdus_unconsumed");
}

void FlowAllocator::attach_handle(
    flow::PortId port, std::shared_ptr<flow::detail::FlowShared> shared) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr) {
    shared->finish_close(Error{Err::flow_closed, "flow vanished"});
    return;
  }
  rec->shared = shared;
  shared->node_stats = self_.host_.node_stats();
  // ~FlowAllocator detaches these ops from every live handle, so a Flow
  // outliving its IPCP fails typed instead of dereferencing a dead this.
  shared->do_write = [this, port](BytesView sdu) -> Result<void> {
    return write(port, sdu);
  };
  shared->do_deallocate = [this, port] { (void)deallocate(port); };
  if (rec->conn)
    rec->conn->set_on_writable([this, port] { notify_writable(port); });
}

void FlowAllocator::notify_writable(flow::PortId port) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr || !rec->shared || rec->closing) return;
  if (rec->shared->state != flow::FlowState::open) return;
  rec->shared->fire_writable();
}

/// Unreliable flows blocked on a full RMT class queue have no ack clock
/// to wake them; poll the queue until it has room, then fire on_writable.
void FlowAllocator::arm_rmt_poll(FlowRec& rec) {
  if (rec.rmt_poll_timer.armed()) return;
  flow::PortId port = rec.port;
  // The timer dies with the record, so a recycled port-id can never be
  // polled on a stale flow's behalf.
  rec.rmt_poll_timer = self_.sched().schedule_after(kRmtPollGap, [this, port] {
    FlowRec* r = by_port(port);
    if (r == nullptr) return;
    if (!r->shared || !r->shared->want_writable || r->closing) return;
    if (self_.rmt_.would_accept(r->peer, r->cube.id))
      notify_writable(port);
    else
      arm_rmt_poll(*r);
  });
}

void FlowAllocator::on_flow_req(const efcp::Pci& /*pci*/, const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  naming::Address src_addr = get_addr(r);
  efcp::CepId src_cep = r.get_u16();
  (void)r.get_u8();
  std::string cube_name = r.get_lpstring();
  naming::AppName src_app = get_app(r);
  naming::AppName dst_app = get_app(r);
  if (!r.ok()) return;

  auto reply = [&](bool ok, efcp::CepId cep, const std::string& err) {
    BufWriter w(32);
    w.put_u8(ok ? 1 : 0);
    w.put_u16(cep);
    w.put_lpstring(err);
    self_.send_routed_mgmt(
        src_addr, {RiepOp::reply, ObjClass::flow_resp, m.invoke_id, std::move(w).take()});
  };

  // Idempotent re-request (the response may have been lost).
  std::uint64_t key = (static_cast<std::uint64_t>(src_addr.key()) << 16) | src_cep;
  auto dup = remote_flow_index_.find(key);
  if (dup != remote_flow_index_.end()) {
    FlowRec* rec = by_port(dup->second);
    if (rec != nullptr) {
      reply(true, rec->local_cep, {});
      return;
    }
  }

  auto ait = apps_.find(dst_app);
  if (ait == apps_.end()) {
    self_.stats_.inc("flow_reqs_refused");
    reply(false, 0, "no such application: " + dst_app.to_string());
    return;
  }
  const flow::QosCube* cube = nullptr;
  for (const auto& c : self_.cfg_.cubes)
    if (c.name == cube_name) cube = &c;
  if (cube == nullptr) {
    self_.stats_.inc("alloc_no_such_cube");
    reply(false, 0, "no such QoS cube: " + cube_name);
    return;
  }

  efcp::CepId local_cep = fresh_cep();
  flow::FlowInfo info = open_flow(dst_app, src_app, src_addr, *cube, local_cep, src_cep);
  remote_flow_index_[key] = info.port;
  self_.stats_.inc("flows_accepted");
  // Reply BEFORE handing the app its handle: an accept handler that
  // writes immediately (server-push) would otherwise race its own SDUs
  // ahead of the FlowResp through the FIFO RMT queue, and the initiator
  // — which learns the CEP only from the response — would drop them.
  reply(true, local_cep, {});
  // Hand the accepting application a first-class handle. The record owns
  // the shared state, so the app may drop the handle and live off hooks.
  auto shared = std::make_shared<flow::detail::FlowShared>();
  shared->open_with(info);
  attach_handle(info.port, shared);
  if (ait->second) ait->second(flow::Flow(shared));
}

void FlowAllocator::on_flow_resp(const efcp::Pci& pci, const rib::RiepMessage& m) {
  auto it = pending_.find(m.invoke_id);
  if (it == pending_.end()) return;
  Pending& pend = it->second;
  BufReader r(BytesView{m.value});
  bool ok = r.get_u8() != 0;
  efcp::CepId cep = r.get_u16();
  std::string err = r.get_lpstring();
  if (!r.ok()) return;
  if (!ok) {
    finish_pending(m.invoke_id, {Err::refused, err});
    return;
  }
  // The responder's address comes from the response itself — the
  // directory entry may have been withdrawn while the request was in
  // flight, and a null peer would black-hole every write.
  flow::FlowInfo info =
      open_flow(pend.local, pend.remote, pci.src, pend.cube, pend.local_cep, cep);
  self_.stats_.inc("flows_allocated");
  finish_pending(m.invoke_id, info);
}

// ---- deallocation: the release exchange ----
//
// deallocate() → FlowRelease → peer retires its port, fires its app's
// on_closed, replies FlowReleaseAck → initiator retires its port. The
// release retries until acked; an unreachable peer costs bounded retries
// before the initiator retires unilaterally. Both directions are
// idempotent: a duplicate release for an already-retired CEP is acked
// again (the first ack may have been lost) but closes nothing twice.

/// The one encoder of the release wire format, shared by deallocate's
/// retried path and close_all's parting shot.
rib::RiepMessage FlowAllocator::release_msg(const FlowRec& rec) {
  BufWriter w(8);
  w.put_u16(rec.remote_cep);  // the peer's CEP: how it finds the flow
  w.put_u16(rec.local_cep);   // ours: how its ack finds us
  return {RiepOp::remove, ObjClass::flow_release, 0, std::move(w).take()};
}

Result<void> FlowAllocator::deallocate(flow::PortId port) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr) return {Err::flow_closed, "no such flow"};
  if (rec->closing) return Ok();  // already in flight: idempotent
  rec->closing = true;
  if (rec->shared) rec->shared->state = flow::FlowState::closing;
  self_.stats_.inc("releases_initiated");
  send_release(port);
  return Ok();
}

void FlowAllocator::send_release(flow::PortId port) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr || !rec->closing) return;
  if (rec->release_attempts >= kMaxReleaseAttempts || rec->peer.is_null()) {
    if (rec->release_attempts >= kMaxReleaseAttempts)
      self_.stats_.inc("release_timeouts");
    finish_close(*rec);
    return;
  }
  ++rec->release_attempts;
  self_.send_routed_mgmt(rec->peer, release_msg(*rec));

  // The retry timer dies with the record, so a recycled port-id can
  // never be released by a stale timer.
  rec->release_timer =
      self_.sched().schedule_after(kReleaseRetry, [this, port] {
        FlowRec* r = by_port(port);
        if (r != nullptr && r->closing) send_release(port);
      });
}

void FlowAllocator::on_flow_release(const efcp::Pci& pci,
                                    const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  efcp::CepId my_cep = r.get_u16();
  efcp::CepId peer_cep = r.get_u16();
  if (!r.ok()) return;
  // Ack before looking anything up: a retried release for a flow we
  // already retired must still be acked or the peer retries to timeout.
  BufWriter w(4);
  w.put_u16(peer_cep);
  self_.send_routed_mgmt(pci.src,
                         {RiepOp::reply, ObjClass::flow_release_ack, 0, std::move(w).take()});

  FlowRec* rec = by_cep(my_cep);
  if (rec == nullptr) return;
  // Only the flow's actual peer may release it; a forged release from
  // another member must not tear down someone else's flow.
  if (!(rec->peer == pci.src)) return;
  self_.stats_.inc("releases_received");
  finish_close(*rec);
}

void FlowAllocator::on_flow_release_ack(const efcp::Pci& pci,
                                        const rib::RiepMessage& m) {
  BufReader r(BytesView{m.value});
  efcp::CepId my_cep = r.get_u16();
  if (!r.ok()) return;
  FlowRec* rec = by_cep(my_cep);
  if (rec == nullptr || !rec->closing) return;
  if (!(rec->peer == pci.src)) return;
  finish_close(*rec);
}

/// Retire a flow's state: its counts folded into the IPCP's table, internal sink told, the app
/// handle closed (on_closed exactly once), maps pruned, port recycled.
void FlowAllocator::finish_close(FlowRec& rec) {
  self_.stats_.inc("flows_closed");
  if (rec.conn) self_.stats_.merge(rec.conn->stats());
  if (rec.on_closed) rec.on_closed();
  std::shared_ptr<flow::detail::FlowShared> shared = std::move(rec.shared);
  flow::PortId port = rec.port;
  std::uint64_t key =
      (static_cast<std::uint64_t>(rec.peer.key()) << 16) | rec.remote_cep;
  remote_flow_index_.erase(key);
  by_cep_.erase(rec.local_cep);
  flows_[port].reset();  // rec dies here; its owned timers cancel with it
  self_.host_.release_port_id(port);
  // Fire the app hook after the record is gone, so a handler that
  // immediately allocates a new flow sees consistent allocator state.
  if (shared) shared->finish_close(Error{});
}

void FlowAllocator::close_all(bool notify_peers) {
  std::vector<flow::PortId> ports;
  for (const auto& rec : flows_)
    if (rec) ports.push_back(rec->port);
  for (flow::PortId port : ports) {
    FlowRec* rec = by_port(port);
    if (rec == nullptr) continue;
    if (notify_peers && !rec->peer.is_null()) {
      // Departing: one best-effort release so the peer's port state (and
      // its app's on_closed) retires too; no retries — we won't be here
      // to hear the ack.
      self_.send_routed_mgmt(rec->peer, release_msg(*rec));
    }
    finish_close(*rec);
  }
}

Result<void> FlowAllocator::write(flow::PortId port, BytesView sdu) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr || !rec->conn) return {Err::flow_closed, "no such flow"};
  if (rec->closing) {
    self_.host_.node_stats()->inc("app_write_bad_port");
    return {Err::flow_closed, "flow is closing"};
  }
  // Unreliable flows have no window to refuse at; probe the RMT class
  // queue so saturation surfaces as would_block instead of tail-drop.
  // The probe repeats the FIB lookup Rmt::send will do — accepted: the
  // app edge is not the relay hot path, and a stale cached port would
  // trade that lookup for missed backpressure after every reroute.
  if (!rec->cube.reliable &&
      !self_.rmt_.would_accept(rec->peer, rec->cube.id)) {
    self_.stats_.inc("write_would_block");
    if (rec->shared) {
      rec->shared->want_writable = true;
      arm_rmt_poll(*rec);
    }
    return {Err::would_block, "RMT class queue full"};
  }
  auto r = rec->conn->write_sdu(sdu);
  if (!r.ok() && r.error().code == Err::backpressure) {
    // The EFCP's refusal is the app edge's would_block: the DTCP window
    // and the bounded send queue are both full.
    self_.stats_.inc("write_would_block");
    if (rec->shared) rec->shared->want_writable = true;
    return {Err::would_block, r.error().msg};
  }
  return r;
}

Result<void> FlowAllocator::write_pkt(flow::PortId port, Packet& sdu) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr || !rec->conn) return {Err::flow_closed, "no such flow"};
  return rec->conn->write_sdu_pkt(sdu);
}

efcp::Connection* FlowAllocator::connection(flow::PortId port) {
  FlowRec* rec = by_port(port);
  return rec == nullptr ? nullptr : rec->conn.get();
}

void FlowAllocator::set_flow_sink(flow::PortId port,
                                  std::function<void(Packet&&)> on_data,
                                  std::function<void()> on_closed) {
  FlowRec* rec = by_port(port);
  if (rec == nullptr) return;
  rec->sink = std::move(on_data);
  rec->on_closed = std::move(on_closed);
}

}  // namespace rina::ipcp
