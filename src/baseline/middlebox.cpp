// middlebox.cpp — NAT and Mobile-IP agents for the baseline stack.
//
// Mobile-IP control messages (proto kProtoMipCtl):
//   u8 type (0 = registration request, 1 = relay to HA, 2 = ack)
//   u32 home address | u32 extra (HA address on 0, care-of address on 1/2)

#include "baseline/middlebox.hpp"

#include "content/protocol.hpp"

namespace rina::baseline {

namespace {
constexpr std::uint8_t kRegRequest = 0;
constexpr std::uint8_t kRegRelay = 1;
constexpr std::uint8_t kRegAck = 2;
constexpr SimTime kRegRetry = SimTime::from_ms(150);

Packet mip_msg(std::uint8_t type, IpAddr home, IpAddr extra) {
  std::uint8_t msg[9] = {type};
  store_be32(msg + 1, home);
  store_be32(msg + 5, extra);
  return Packet::with_headroom(kDefaultHeadroom, BytesView{msg, sizeof msg});
}
}  // namespace

// ============================== NatBox ==============================

NatBox::NatBox(BNode& node, IpAddr public_addr, std::uint8_t proto)
    : node_(node), pub_(public_addr), proto_(proto) {
  node_.set_forward_hook([this](IpHeader& h, Packet& payload, int) {
    if (h.proto != proto_) return true;
    BufReader r(payload.view());
    std::uint16_t sport = r.get_u16();
    std::uint16_t dport = r.get_u16();
    if (!r.ok()) return true;
    if (h.dst == pub_) {
      // Inbound: only a previously punched mapping gets through.
      auto it = map_.find(dport);
      if (it == map_.end()) {
        stats_.inc("inbound_dropped");
        return false;
      }
      h.dst = it->second;
      stats_.inc("inbound_translated");
      return true;
    }
    if (h.src != pub_ && !node_.owns(h.src)) {
      // Outbound from the private side: punch and masquerade.
      map_[sport] = h.src;
      h.src = pub_;
      stats_.inc("outbound_mapped");
    }
    return true;
  });
}

// ============================= HomeAgent =============================

HomeAgent::HomeAgent(BNode& node, IpAddr home_addr)
    : node_(node), home_(home_addr) {
  node_.set_forward_hook([this](IpHeader& h, Packet& payload, int) {
    if (h.dst != home_ || care_of_ == 0 || h.proto == kProtoMipCtl) return true;
    // Tunnel the whole packet to the registered care-of address: the
    // inner header goes back into the headroom, the outer header in
    // front of it — IP-in-IP without re-copying the payload.
    Packet inner = std::move(payload);
    h.prepend_to(inner);
    IpHeader outer;
    outer.src = node_.primary_addr();
    outer.dst = care_of_;
    outer.proto = kProtoTunnel;
    (void)node_.ip_send(outer, std::move(inner));
    stats_.inc("tunneled");
    return false;
  });
  node_.register_proto(kProtoMipCtl, [this](const IpHeader&, Packet&& p, int) {
    BufReader r(p.view());
    std::uint8_t type = r.get_u8();
    IpAddr home = r.get_u32();
    IpAddr coa = r.get_u32();
    if (!r.ok() || type != kRegRelay || home != home_) return;
    care_of_ = coa;
    stats_.inc("registrations");
    IpHeader h;
    h.src = node_.primary_addr();
    h.dst = coa;
    h.proto = kProtoMipCtl;
    (void)node_.ip_send(h, mip_msg(kRegAck, home, coa));
  });
}

// ============================ ForeignAgent ============================

ForeignAgent::ForeignAgent(BNode& node) : node_(node) {
  node_.register_proto(kProtoMipCtl,
                       [this](const IpHeader& ip, Packet&& p, int in_if) {
    BufReader r(p.view());
    std::uint8_t type = r.get_u8();
    IpAddr home = r.get_u32();
    IpAddr extra = r.get_u32();
    if (!r.ok()) return;
    if (type == kRegRequest && in_if >= 0) {
      // A mobile on one of our wires wants in: remember which wire and
      // relay to its home agent with our address as care-of.
      bindings_[home] = in_if;
      stats_.inc("mobiles_attached");
      IpHeader h;
      h.src = node_.primary_addr();
      h.dst = extra;  // home agent
      h.proto = kProtoMipCtl;
      (void)node_.ip_send(h, mip_msg(kRegRelay, home, node_.primary_addr()));
    } else if (type == kRegAck) {
      auto it = bindings_.find(home);
      if (it == bindings_.end()) return;
      IpHeader h;
      h.src = node_.primary_addr();
      h.dst = home;
      h.proto = kProtoMipCtl;
      (void)node_.send_on_iface(it->second, h, mip_msg(kRegAck, home, extra));
      stats_.inc("acks_forwarded");
    }
    (void)ip;
  });
  node_.register_proto(kProtoTunnel, [this](const IpHeader&, Packet&& p, int) {
    auto inner = IpHeader::decode_packet(p);  // pulls the inner header
    if (!inner.ok()) return;
    auto it = bindings_.find(inner.value().dst);
    if (it == bindings_.end()) {
      stats_.inc("tunnel_no_binding");
      return;
    }
    stats_.inc("decapsulated");
    (void)node_.send_on_iface(it->second, inner.value(), std::move(p));
  });
}

// ============================ MobileClient ============================

MobileClient::MobileClient(BNode& node, IpAddr home_addr)
    : node_(node), home_(home_addr) {
  node_.register_proto(kProtoMipCtl, [this](const IpHeader&, Packet&& p, int) {
    BufReader r(p.view());
    std::uint8_t type = r.get_u8();
    IpAddr home = r.get_u32();
    if (!r.ok() || type != kRegAck || home != home_) return;
    if (acked_) return;
    acked_ = true;
    stats_.inc("acks");
    if (done_) {
      auto cb = std::move(done_);
      done_ = nullptr;
      cb();
    }
  });
}

void MobileClient::register_with(IpAddr fa_addr, IpAddr home_agent,
                                 std::function<void()> done) {
  fa_addr_ = fa_addr;
  ha_addr_ = home_agent;
  done_ = std::move(done);
  acked_ = false;
  attempt();
}

void MobileClient::attempt() {
  if (acked_) return;
  int ifidx = node_.iface_to_addr(fa_addr_);
  if (ifidx >= 0) {
    IpHeader h;
    h.src = home_;
    h.dst = fa_addr_;
    h.proto = kProtoMipCtl;
    stats_.inc("registrations_sent");
    (void)node_.send_on_iface(ifidx, h, mip_msg(kRegRequest, home_, ha_addr_));
  }
  // Registration or ack may be lost mid-handoff: retry until acked. A
  // newer registration supersedes this one by re-arming the same timer.
  reg_timer_ = node_.net().sched().schedule_after(kRegRetry, [this] {
    if (!acked_) attempt();
  });
}

// ============================= CdnCache =============================

CdnCache::CdnCache(TransportStack& transport, Config cfg)
    : ts_(transport), cfg_(cfg), store_(cfg.capacity_objects) {
  (void)ts_.listen(cfg_.listen_port, [this](SockId client) {
    ts_.set_on_data(client, [this](SockId s, Bytes&& msg) {
      on_client_interest(s, BytesView{msg});
    });
  });
}

void CdnCache::on_client_interest(SockId client, BytesView raw) {
  auto decoded = content::decode(raw);
  if (!decoded.ok() || decoded.value().type != content::MsgType::interest) {
    stats_.inc("decode_errors");
    return;
  }
  const content::Message& msg = decoded.value();
  content::ObjectKey key{msg.name, msg.object_id};
  if (const Bytes* obj = store_.lookup(key)) {
    stats_.inc("cache_hits");
    Bytes reply = content::encode_data(msg.request_id, msg.name,
                                       msg.object_id, BytesView{*obj});
    if (!ts_.send(client, BytesView{reply}).ok())
      stats_.inc("replies_refused");
    return;
  }
  stats_.inc("cache_misses");
  forward_upstream(client, msg.request_id, msg.name, msg.object_id);
}

void CdnCache::forward_upstream(SockId client, std::uint64_t client_req,
                                const std::string& name,
                                std::uint64_t object_id) {
  // The proxy terminates the client connection: upstream requests get
  // fresh ids so replies can be routed back to the right client even
  // when several clients pick the same request id.
  std::uint64_t up = next_upstream_++;
  upstream_[up] = Upstream{client, client_req};
  Bytes interest = content::encode_interest(up, name, object_id);
  if (origin_sock_) {
    if (!ts_.send(*origin_sock_, BytesView{interest}).ok())
      stats_.inc("upstream_refused");
    return;
  }
  origin_backlog_.push_back(std::move(interest));
  ensure_origin();
}

void CdnCache::ensure_origin() {
  if (origin_connecting_ || origin_sock_) return;
  origin_connecting_ = true;
  ts_.connect(cfg_.origin, cfg_.origin_port, {}, [this](Result<SockId> r) {
    origin_connecting_ = false;
    if (!r.ok()) {
      stats_.inc("origin_connect_failed");
      // In-flight misses die with the attempt; the clients' interest
      // retries will come back around and reconnect.
      origin_backlog_.clear();
      upstream_.clear();
      return;
    }
    origin_sock_ = r.value();
    ts_.set_on_data(*origin_sock_, [this](SockId, Bytes&& msg) {
      on_origin_reply(BytesView{msg});
    });
    ts_.set_on_closed(*origin_sock_, [this](SockId, const Error&) {
      origin_sock_.reset();
      upstream_.clear();
    });
    while (!origin_backlog_.empty()) {
      if (!ts_.send(*origin_sock_, BytesView{origin_backlog_.front()}).ok())
        stats_.inc("upstream_refused");
      origin_backlog_.pop_front();
    }
  });
}

void CdnCache::on_origin_reply(BytesView raw) {
  auto decoded = content::decode(raw);
  if (!decoded.ok()) {
    stats_.inc("decode_errors");
    return;
  }
  const content::Message& msg = decoded.value();
  auto it = upstream_.find(msg.request_id);
  if (it == upstream_.end()) {
    stats_.inc("late_replies");
    return;
  }
  Upstream req = it->second;
  upstream_.erase(it);
  Bytes reply;
  if (msg.type == content::MsgType::data) {
    stats_.inc("origin_responses");
    store_.insert(content::ObjectKey{msg.name, msg.object_id}, msg.object);
    reply = content::encode_data(req.client_req, msg.name, msg.object_id,
                                 msg.object);
  } else {
    reply = content::encode_nack(req.client_req, msg.name, msg.object_id);
  }
  if (!ts_.send(req.client, BytesView{reply}).ok())
    stats_.inc("replies_refused");
}

}  // namespace rina::baseline
