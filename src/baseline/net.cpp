// net.cpp — baseline TCP/IP stack implementation.

#include "baseline/net.hpp"

#include <algorithm>
#include <queue>

namespace rina::baseline {

namespace {
constexpr std::uint8_t kSyn = 0x01;
constexpr std::uint8_t kAck = 0x02;
constexpr std::uint8_t kRst = 0x04;
constexpr std::uint8_t kData = 0x08;
constexpr SimTime kMinRto = SimTime::from_ms(200);
constexpr SimTime kMaxRto = SimTime::from_sec(10);
constexpr SimTime kReconvergence = SimTime::from_ms(50);
}  // namespace

// ============================ IpHeader ============================

void IpHeader::prepend_to(Packet& payload) const {
  auto len = static_cast<std::uint16_t>(payload.size());
  std::uint8_t* h = payload.prepend(kBytes);
  store_be32(h, src);
  store_be32(h + 4, dst);
  h[8] = proto;
  h[9] = ttl;
  store_be16(h + 10, len);
}

Result<IpHeader> IpHeader::decode_packet(Packet& frame) {
  BufReader r(frame.view());
  IpHeader h;
  h.src = r.get_u32();
  h.dst = r.get_u32();
  h.proto = r.get_u8();
  h.ttl = r.get_u8();
  std::uint16_t len = r.get_u16();
  if (!r.ok() || len != r.remaining()) return {Err::decode, "bad IP frame"};
  frame.pull(kBytes);
  return h;
}

// ============================== BNode ==============================

BNode::BNode(BaselineNet& net, std::string name)
    : net_(net), name_(std::move(name)) {}

IpAddr BNode::primary_addr() const {
  return ifaces_.empty() ? 0 : ifaces_.front().addr;
}

bool BNode::owns(IpAddr a) const {
  if (aliases_.count(a) != 0) return true;
  for (const auto& i : ifaces_)
    if (i.addr == a) return true;
  return false;
}

int BNode::iface_to(const std::string& neighbor) const {
  for (std::size_t i = 0; i < ifaces_.size(); ++i)
    if (ifaces_[i].peer == neighbor && ifaces_[i].link->up())
      return static_cast<int>(i);
  return -1;
}

int BNode::iface_to_addr(IpAddr peer_addr) const {
  for (std::size_t i = 0; i < ifaces_.size(); ++i)
    if (ifaces_[i].peer_addr == peer_addr && ifaces_[i].link->up())
      return static_cast<int>(i);
  return -1;
}

Result<void> BNode::ip_send(const IpHeader& h, Packet payload) {
  stats_.inc("ip_tx");
  if (owns(h.dst)) {
    auto it = protos_.find(h.proto);
    if (it != protos_.end()) it->second(h, std::move(payload), -1);
    return Ok();
  }
  auto fit = fib_.find(h.dst);
  if (fit == fib_.end()) {
    stats_.inc("ip_no_route");
    return {Err::no_route, "no route"};
  }
  return send_on_iface(fit->second, h, std::move(payload));
}

Result<void> BNode::send_on_iface(int ifidx, const IpHeader& h, Packet&& payload) {
  if (ifidx < 0 || static_cast<std::size_t>(ifidx) >= ifaces_.size())
    return {Err::invalid, "bad iface"};
  Iface& nic = ifaces_[static_cast<std::size_t>(ifidx)];
  if (!nic.link->up()) return {Err::down, "link down"};
  h.prepend_to(payload);  // zero-copy framing into the headroom
  if (!nic.ep->send(std::move(payload))) stats_.inc("nic_drops");
  return Ok();
}

void BNode::receive(int ifidx, Packet&& frame) {
  auto decoded = IpHeader::decode_packet(frame);  // pulls header in place
  if (!decoded.ok()) return;
  IpHeader h = decoded.value();
  stats_.inc("ip_rx");
  if (hook_ && !hook_(h, frame, ifidx)) return;  // consumed or dropped
  if (owns(h.dst)) {
    auto it = protos_.find(h.proto);
    if (it != protos_.end()) it->second(h, std::move(frame), ifidx);
    return;
  }
  forward(h, std::move(frame));
}

void BNode::forward(IpHeader h, Packet payload) {
  if (h.ttl == 0) {
    stats_.inc("ip_ttl_drops");
    return;
  }
  --h.ttl;
  auto fit = fib_.find(h.dst);
  if (fit == fib_.end()) {
    stats_.inc("ip_no_route");
    return;
  }
  stats_.inc("ip_forwarded");
  (void)send_on_iface(fit->second, h, std::move(payload));
}

// ========================= TransportStack =========================

TransportStack::TransportStack(BNode& node, sim::Scheduler& sched, Config cfg)
    : node_(node), sched_(sched), cfg_(cfg) {
  node_.register_proto(cfg_.proto, [this](const IpHeader& ip, Packet&& seg, int) {
    on_segment(ip, std::move(seg));
  });
}

SimTime TransportStack::current_rto(const Sock& s) const {
  SimTime t = kMinRto;
  for (int i = 0; i < s.backoff; ++i) t = t + t;
  if (kMaxRto < t) t = kMaxRto;
  return t;
}

TransportStack::Sock* TransportStack::find(SockId s) {
  auto it = socks_.find(s);
  return it == socks_.end() ? nullptr : it->second.get();
}

TransportStack::Sock* TransportStack::match(std::uint16_t local_port,
                                            std::uint16_t remote_port,
                                            IpAddr remote) {
  // Full 4-tuple-equivalent match: two clients on different hosts may
  // well pick the same ephemeral port. A multihomed peer may answer from
  // any of its advertised addresses.
  for (auto& [id, s] : socks_) {
    if (s->local_port != local_port || s->remote_port != remote_port) continue;
    if (s->remote == remote) return s.get();
    for (IpAddr p : s->paths)
      if (p == remote) return s.get();
  }
  return nullptr;
}

Result<void> TransportStack::listen(std::uint16_t port,
                                    std::function<void(SockId)> on_accept) {
  auto [it, inserted] = listeners_.emplace(port, std::move(on_accept));
  if (!inserted) return {Err::already_exists, "port in use"};
  return Ok();
}

SockId TransportStack::connect(IpAddr dst, std::uint16_t port,
                               std::vector<IpAddr> alts,
                               std::function<void(Result<SockId>)> cb) {
  auto s = std::make_unique<Sock>();
  s->id = next_id_++;
  s->state = State::syn_sent;
  s->local_port = next_ephemeral_++;
  s->remote_port = port;
  s->remote = dst;
  s->paths.push_back(dst);
  if (cfg_.multihomed)
    for (IpAddr a : alts) s->paths.push_back(a);
  s->connect_cb = std::move(cb);
  SockId id = s->id;
  Sock& ref = *s;
  socks_.emplace(id, std::move(s));
  transmit_segment(ref, kSyn, 0, 0, {});
  arm_timer(ref);
  return id;
}

Result<void> TransportStack::send(SockId id, BytesView data) {
  Sock* s = find(id);
  if (s == nullptr || s->state == State::closed)
    return {Err::flow_closed, "socket closed"};
  if (s->sendq.size() >= kSendQ) return {Err::backpressure, "send queue full"};
  // The one copy of the send path: into a headroomed Packet that the
  // transport, IP, and tunnel layers then frame in place.
  s->sendq.push_back(Packet::with_headroom(kDefaultHeadroom, data));
  if (s->state == State::established) pump(*s);
  return Ok();
}

void TransportStack::set_on_data(SockId id, std::function<void(SockId, Bytes&&)> cb) {
  if (Sock* s = find(id); s != nullptr) s->on_data = std::move(cb);
}

void TransportStack::set_on_closed(SockId id,
                                   std::function<void(SockId, const Error&)> cb) {
  if (Sock* s = find(id); s != nullptr) s->on_closed = std::move(cb);
}

void TransportStack::transmit_segment(Sock& s, std::uint8_t flags,
                                      std::uint64_t seq, std::uint64_t ack,
                                      Packet payload) {
  auto len = static_cast<std::uint16_t>(payload.size());
  std::uint8_t* hdr = payload.prepend(23);
  store_be16(hdr, s.local_port);
  store_be16(hdr + 2, s.remote_port);
  hdr[4] = flags;
  store_be64(hdr + 5, seq);
  store_be64(hdr + 13, ack);
  store_be16(hdr + 21, len);
  IpHeader h;
  h.src = node_.primary_addr();
  h.dst = s.paths.empty() ? s.remote : s.paths[s.path % s.paths.size()];
  h.proto = cfg_.proto;
  (void)node_.ip_send(h, std::move(payload));
  stats_.inc("segments_tx");
}

std::size_t TransportStack::effective_window(const Sock& s) {
  auto w = static_cast<std::size_t>(s.cwnd);
  if (w < 1) w = 1;
  return w < kWindow ? w : kWindow;
}

void TransportStack::pump(Sock& s) {
  while (!s.sendq.empty() && s.unacked.size() < effective_window(s)) {
    Packet payload = std::move(s.sendq.front());
    s.sendq.pop_front();
    std::uint64_t seq = s.next_seq++;
    // Park a handle before framing: the segment travels as the buffer's
    // frontier handle, so headers prepend in place; only a go-back-N
    // retransmission pays a copy-on-write.
    s.unacked.emplace_back(seq, payload.share());
    transmit_segment(s, kData, seq, 0, std::move(payload));
  }
  if (!s.unacked.empty()) arm_timer(s);
}

void TransportStack::arm_timer(Sock& s) {
  // The common case (every ack) re-arms the live timer in place — no
  // allocation, no stale closure; the fallback arms a fresh one.
  if (s.retx_timer.rearm(current_rto(s))) return;
  SockId id = s.id;
  s.retx_timer =
      sched_.schedule_after(current_rto(s), [this, id] { on_rto(id); });
}

void TransportStack::on_rto(SockId id) {
  Sock* s = find(id);
  if (s == nullptr || s->state == State::closed) return;

  if (s->state == State::syn_sent) {
    if (++s->syn_tries >= 6) {
      auto cb = std::move(s->connect_cb);
      close_sock(*s, Error{Err::timeout, "connect timed out"});
      if (cb) cb(Result<SockId>{Err::timeout, "connect timed out"});
      return;
    }
    ++s->backoff;
    transmit_segment(*s, kSyn, 0, 0, {});
    arm_timer(*s);
    return;
  }

  if (s->unacked.empty()) return;
  ++s->consecutive_rtos;
  if (cfg_.multihomed && s->paths.size() > 1 &&
      s->consecutive_rtos >= kFailoverRtos) {
    // SCTP-flavored: the transport cannot *know* the interface below
    // died; after enough silence it blindly rotates destination PoA.
    s->path = (s->path + 1) % s->paths.size();
    s->consecutive_rtos = 0;
    s->backoff = 0;
    stats_.inc("path_failovers");
    // The new path's capacity is unknown: restart congestion control.
    s->ssthresh = s->cwnd / 2.0 > 2.0 ? s->cwnd / 2.0 : 2.0;
    s->cwnd = 1.0;
  } else if (!cfg_.multihomed && s->consecutive_rtos >= kMaxRtos) {
    // TCP-flavored: the connection is named by a dead address. It dies.
    Error e{Err::timeout, "max retransmissions"};
    close_sock(*s, e);
    return;
  } else {
    ++s->backoff;
    // Loss is the only congestion signal this stack has: halve the
    // threshold and collapse the window (classic AIMD on loss).
    s->ssthresh = s->cwnd / 2.0 > 2.0 ? s->cwnd / 2.0 : 2.0;
    s->cwnd = 1.0;
    stats_.inc("cwnd_collapses");
  }
  // Go-back-N: resend the whole outstanding window.
  for (auto& [seq, payload] : s->unacked) {
    transmit_segment(*s, kData, seq, 0, payload.share());
    stats_.inc("retx");
  }
  arm_timer(*s);
}

void TransportStack::close_sock(Sock& s, const Error& e) {
  s.state = State::closed;
  s.sendq.clear();
  s.unacked.clear();
  s.retx_timer.cancel();
  if (s.on_closed) s.on_closed(s.id, e);
}

void TransportStack::on_segment(const IpHeader& ip, Packet&& seg) {
  BufReader r(seg.view());
  std::uint16_t sport = r.get_u16();
  std::uint16_t dport = r.get_u16();
  std::uint8_t flags = r.get_u8();
  std::uint64_t seq = r.get_u64();
  std::uint64_t ack = r.get_u64();
  std::uint16_t len = r.get_u16();
  if (!r.ok() || len != r.remaining()) return;
  seg.pull(23);  // payload stays in place
  stats_.inc("segments_rx");

  Sock* s = match(dport, sport, ip.src);

  if ((flags & kSyn) != 0 && (flags & kAck) == 0) {
    auto lit = listeners_.find(dport);
    if (lit == listeners_.end()) {
      // Closed port: answer RST — leaking liveness to whoever asked.
      Sock tmp;
      tmp.local_port = dport;
      tmp.remote_port = sport;
      tmp.remote = ip.src;
      tmp.paths.push_back(ip.src);
      transmit_segment(tmp, kRst, 0, 0, {});
      stats_.inc("rsts_sent");
      return;
    }
    if (s == nullptr) {
      auto ns = std::make_unique<Sock>();
      ns->id = next_id_++;
      ns->state = State::established;
      ns->local_port = dport;
      ns->remote_port = sport;
      ns->remote = ip.src;
      ns->paths.push_back(ip.src);
      s = ns.get();
      socks_.emplace(ns->id, std::move(ns));
      lit->second(s->id);
    }
    transmit_segment(*s, kSyn | kAck, 0, 0, {});
    return;
  }

  if (s == nullptr) return;

  if ((flags & kRst) != 0) {
    if (s->state == State::syn_sent) {
      auto cb = std::move(s->connect_cb);
      close_sock(*s, Error{Err::flow_closed, "connection refused"});
      if (cb) cb(Result<SockId>{Err::flow_closed, "connection refused"});
    } else {
      close_sock(*s, Error{Err::flow_closed, "reset by peer"});
    }
    return;
  }

  if ((flags & kSyn) != 0 && (flags & kAck) != 0) {
    if (s->state == State::syn_sent) {
      s->state = State::established;
      s->backoff = 0;
      s->consecutive_rtos = 0;
      transmit_segment(*s, kAck, 0, 0, {});
      auto cb = std::move(s->connect_cb);
      if (cb) cb(Result<SockId>{s->id});
      pump(*s);
    }
    return;
  }

  if ((flags & kData) != 0) {
    // Go-back-N receiver: in-order only, cumulative ack.
    if (seq == s->recv_expected) {
      ++s->recv_expected;
      if (s->on_data) s->on_data(s->id, std::move(seg).take_bytes());
    } else if (seq > s->recv_expected) {
      stats_.inc("ooo_dropped");
    }
    transmit_segment(*s, kAck, 0, s->recv_expected, {});
    return;
  }

  if ((flags & kAck) != 0) {
    if (ack == 0) return;  // bare handshake ack
    bool advanced = false;
    while (!s->unacked.empty() && s->unacked.front().first < ack) {
      s->unacked.pop_front();
      advanced = true;
      // AIMD growth per newly acked segment: exponential below the
      // threshold (slow start), one segment per window above it.
      if (s->cwnd < s->ssthresh)
        s->cwnd += 1.0;
      else
        s->cwnd += 1.0 / s->cwnd;
      if (s->cwnd > static_cast<double>(kWindow))
        s->cwnd = static_cast<double>(kWindow);
    }
    if (advanced) {
      s->backoff = 0;
      s->consecutive_rtos = 0;
    }
    pump(*s);
    if (s->unacked.empty())
      s->retx_timer.cancel();  // nothing outstanding: quiesce the timer
    else if (advanced)
      arm_timer(*s);
  }
}

// ============================ BaselineNet ============================

BaselineNet::BaselineNet(std::uint64_t seed) : seed_(seed) {}
BaselineNet::~BaselineNet() { }

BNode& BaselineNet::add_node(const std::string& name, const std::string& domain) {
  (void)domain;
  auto it = nodes_.find(name);
  if (it == nodes_.end())
    it = nodes_.emplace(name, std::make_unique<BNode>(*this, name)).first;
  return *it->second;
}

BNode& BaselineNet::node(const std::string& name) { return add_node(name); }

std::pair<IpAddr, IpAddr> BaselineNet::add_link(const std::string& a,
                                                const std::string& b,
                                                const BLinkOpts& opts,
                                                const std::string& domain) {
  BNode& na = add_node(a);
  BNode& nb = add_node(b);
  auto& next = domain_next_[domain];
  if (next == 0) {
    domain_order_.push_back(domain);
    next = 0x0A000001u + static_cast<IpAddr>(domain_order_.size() - 1) * 0x10000u;
  }
  IpAddr addr_a = next++;
  IpAddr addr_b = next++;

  sim::LinkConfig cfg = opts.to_config();
  auto rec = std::make_unique<LinkRec>();
  rec->a = a;
  rec->b = b;
  rec->addr_a = addr_a;
  rec->addr_b = addr_b;
  rec->domain = domain;
  rec->link = std::make_unique<sim::Link>(sched_, cfg,
                                          seed_ * 0x2545f491ULL + ++link_seq_);

  auto wire = [&](BNode& n, int side, IpAddr addr, IpAddr peer_addr,
                  const std::string& peer) {
    BNode::Iface nic;
    nic.ep = &rec->link->ep(side);
    nic.addr = addr;
    nic.peer_addr = peer_addr;
    nic.peer = peer;
    nic.domain = domain;
    nic.link = rec->link.get();
    int ifidx = static_cast<int>(n.ifaces_.size());
    n.ifaces_.push_back(nic);
    BNode* np = &n;
    nic.ep->set_receiver([np, ifidx](Packet&& f) { np->receive(ifidx, std::move(f)); });
  };
  wire(na, 0, addr_a, addr_b, b);
  wire(nb, 1, addr_b, addr_a, a);
  links_.push_back(std::move(rec));
  return {addr_a, addr_b};
}

Result<void> BaselineNet::set_link_state(const std::string& a, const std::string& b,
                                         bool up) {
  for (auto& rec : links_) {
    if (!((rec->a == a && rec->b == b) || (rec->a == b && rec->b == a))) continue;
    if (rec->link->up() != up) {
      rec->link->set_up(up);
      on_topology_change(rec->a, rec->b, rec->domain);
      return Ok();
    }
  }
  return Ok();
}

void BaselineNet::on_topology_change(const std::string& a, const std::string& b,
                                     const std::string& domain) {
  if (!routing_enabled_) return;
  flood_lsas({a, b}, domain);
  if (recompute_timer_.armed()) return;
  recompute_timer_ =
      sched_.schedule_after(kReconvergence, [this] { recompute_fibs(); });
}

void BaselineNet::flood_lsas(const std::vector<std::string>& origins,
                             const std::string& domain) {
  // Count flooding work: each LSA reaches every node in the domain; every
  // node forwards it once out of each other up link.
  for (const auto& origin : origins) {
    BNode& on = node(origin);
    std::size_t degree = 0;
    for (const auto& nic : on.ifaces_)
      if (nic.domain == domain) ++degree;
    bool is_router = degree >= 2;
    if (!routing_all_nodes_ && !is_router) continue;

    std::set<std::string> visited{origin};
    std::queue<std::string> q;
    q.push(origin);
    while (!q.empty()) {
      std::string cur = q.front();
      q.pop();
      for (auto& rec : links_) {
        if (rec->domain != domain || !rec->link->up()) continue;
        std::string other;
        if (rec->a == cur) {
          other = rec->b;
        } else if (rec->b == cur) {
          other = rec->a;
        } else {
          continue;
        }
        node(cur).stats().inc("routing_msgs_sent");
        if (visited.insert(other).second) q.push(other);
      }
    }
  }
}

void BaselineNet::recompute_fibs() {
  // Per domain: BFS shortest paths over up links; one FIB entry per
  // remote interface address (the strong-host model: an address is
  // reachable only while its own link is up).
  for (auto& [name, n] : nodes_) n->fib_.clear();

  for (const auto& domain : domain_order_) {
    // Adjacency among nodes in this domain.
    std::map<std::string, std::vector<std::pair<std::string, int>>> adj;
    for (auto& [name, n] : nodes_) {
      for (std::size_t i = 0; i < n->ifaces_.size(); ++i) {
        const auto& nic = n->ifaces_[i];
        if (nic.domain != domain || !nic.link->up()) continue;
        adj[name].emplace_back(nic.peer, static_cast<int>(i));
      }
    }
    for (auto& [src_name, edges] : adj) {
      BNode& src = node(src_name);
      // BFS tree: first hop toward every reachable node.
      std::map<std::string, int> first_iface;
      std::queue<std::string> q;
      std::set<std::string> visited{src_name};
      for (auto& [peer, ifidx] : edges) {
        if (visited.insert(peer).second) {
          first_iface[peer] = ifidx;
          q.push(peer);
        }
      }
      while (!q.empty()) {
        std::string cur = q.front();
        q.pop();
        auto it = adj.find(cur);
        if (it == adj.end()) continue;
        for (auto& [peer, ifidx] : it->second) {
          if (visited.insert(peer).second) {
            first_iface[peer] = first_iface[cur];
            q.push(peer);
          }
        }
      }
      // Addresses live on links: route to the link's far owner.
      for (auto& rec : links_) {
        if (rec->domain != domain || !rec->link->up()) continue;
        for (auto& [owner, addr] :
             {std::pair<std::string, IpAddr>{rec->a, rec->addr_a},
              std::pair<std::string, IpAddr>{rec->b, rec->addr_b}}) {
          if (owner == src_name) continue;
          auto fit = first_iface.find(owner);
          if (fit != first_iface.end()) src.fib_[addr] = fit->second;
        }
      }
    }
  }
}

void BaselineNet::enable_routing(bool all_nodes) {
  routing_enabled_ = true;
  routing_all_nodes_ = all_nodes;
  for (const auto& domain : domain_order_) {
    std::vector<std::string> origins;
    std::set<std::string> in_domain;
    for (auto& rec : links_) {
      if (rec->domain != domain) continue;
      in_domain.insert(rec->a);
      in_domain.insert(rec->b);
    }
    origins.assign(in_domain.begin(), in_domain.end());
    flood_lsas(origins, domain);
  }
  recompute_fibs();
}

TransportStack& BaselineNet::transport(const std::string& name,
                                       const TransportStack::Config& cfg) {
  auto it = transports_.find(name);
  if (it == transports_.end())
    it = transports_
             .emplace(name, std::make_unique<TransportStack>(node(name), sched_, cfg))
             .first;
  return *it->second;
}

std::uint64_t BaselineNet::sum_counter(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& [nm, n] : nodes_) total += n->stats().get(name);
  for (const auto& [nm, t] : transports_) total += t->stats().get(name);
  return total;
}

}  // namespace rina::baseline
