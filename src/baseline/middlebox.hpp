// middlebox.hpp — the boxes the current Internet bolts on to recover
// what the architecture lost: NAT (private networks by translation),
// Mobile-IP agents (mobility by triangle routing through a home agent),
// and a CDN caching proxy (in-network storage by interposing on the
// application protocol). All exist in the benches to be measured against
// DIFs that get the same properties architecturally.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "baseline/net.hpp"
#include "content/store.hpp"

namespace rina::baseline {

/// Network address translator on one node with a public address.
/// Outbound flows punch mappings; unsolicited inbound is dropped cold.
class NatBox {
 public:
  NatBox(BNode& node, IpAddr public_addr, std::uint8_t proto);
  Stats& stats() { return stats_; }

 private:
  BNode& node_;
  IpAddr pub_;
  std::uint8_t proto_;
  std::map<std::uint16_t, IpAddr> map_;  // transport port -> private addr
  Stats stats_;
};

class ForeignAgent;

/// Home agent: intercepts packets for the mobile's home address and
/// tunnels them to the current care-of address. Every delivered packet
/// pays the detour, forever.
class HomeAgent {
 public:
  HomeAgent(BNode& node, IpAddr home_addr);
  Stats& stats() { return stats_; }

 private:
  BNode& node_;
  IpAddr home_;
  IpAddr care_of_ = 0;
  Stats stats_;
};

/// Foreign agent: relays registrations to the home agent and decapsulates
/// the tunnel toward its attached mobiles.
class ForeignAgent {
 public:
  explicit ForeignAgent(BNode& node);
  Stats& stats() { return stats_; }
  [[nodiscard]] BNode& bnode() { return node_; }
  [[nodiscard]] IpAddr addr() const { return node_.primary_addr(); }

 private:
  BNode& node_;
  std::map<IpAddr, int> bindings_;  // home addr -> iface toward the mobile
  Stats stats_;
};

/// CDN caching proxy: the baseline's way to get in-network storage.
/// Clients must be *pointed at the box* (they connect to it instead of
/// the origin — explicit infrastructure, visible in every URL/config),
/// it terminates their TCP connections, serves hits from a local
/// content::ContentStore, and forwards misses to the origin over one
/// persistent upstream connection. Compare the RMT content-store
/// policy, where clients talk to the origin by name and caching is a
/// property of the DIF.
class CdnCache {
 public:
  struct Config {
    std::uint16_t listen_port = 8080;
    IpAddr origin = 0;
    std::uint16_t origin_port = 80;
    std::size_t capacity_objects = 1024;
  };

  CdnCache(TransportStack& transport, Config cfg);

  Stats& stats() { return stats_; }
  content::ContentStore& store() { return store_; }

 private:
  void on_client_interest(SockId client, BytesView msg);
  void forward_upstream(SockId client, std::uint64_t client_req,
                        const std::string& name, std::uint64_t object_id);
  void ensure_origin();
  void on_origin_reply(BytesView msg);

  TransportStack& ts_;
  Config cfg_;
  content::ContentStore store_;
  // In-flight misses: upstream request id -> who asked and as what.
  struct Upstream {
    SockId client = 0;
    std::uint64_t client_req = 0;
  };
  std::map<std::uint64_t, Upstream> upstream_;
  std::uint64_t next_upstream_ = 1;
  std::optional<SockId> origin_sock_;
  bool origin_connecting_ = false;
  std::deque<Bytes> origin_backlog_;  // misses queued behind the connect
  Stats stats_;
};

/// The mobile host's registration client.
class MobileClient {
 public:
  MobileClient(BNode& node, IpAddr home_addr);

  /// (Re-)register through the foreign agent whose address on our access
  /// link is `fa_addr`; `done` fires when the home agent's ack arrives.
  /// Retries on loss until a newer registration supersedes it.
  void register_with(IpAddr fa_addr, IpAddr home_agent,
                     std::function<void()> done);

  Stats& stats() { return stats_; }

 private:
  void attempt();

  BNode& node_;
  IpAddr home_;
  IpAddr fa_addr_ = 0;
  IpAddr ha_addr_ = 0;
  std::function<void()> done_;
  bool acked_ = false;
  Stats stats_;
  // Owned retry timer: a newer registration re-arms it (superseding the
  // pending retry) and destruction cancels it with the client.
  sim::Timer reg_timer_;
};

}  // namespace rina::baseline
