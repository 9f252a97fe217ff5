// bench_c7_private_nets — §6.5/§6.7: "private networks are the norm".
// Two corporate sites run private DIFs with IDENTICAL address spaces; a
// provider DIF connects their border routers; a corporate overlay DIF
// spans both sites. Measured against a baseline where the same sites sit
// behind NAT boxes on the public Internet:
//
//   address reuse      — both sites use the same numeric addresses with
//                        zero conflicts (addresses are DIF-internal);
//   inbound (P2P)      — a flow initiated from outside the site reaches an
//                        application inside (NAT blocks this cold);
//   joining an e-mall  — messages/time for a new member to join the
//                        corporate DIF (the §6.7 adoptability cost).
#include "baseline/middlebox.hpp"
#include "baseline/net.hpp"
#include "common.hpp"

using namespace rina;
using namespace rina::benchx;

int main() {
  std::printf("C7 — §6.7 private networks without NAT\n");
  TablePrinter t({"property", "RINA private DIFs", "baseline + NAT"});

  // ------------------------- RINA side -------------------------
  Network net(1201);
  // Site A: hostA1 - borderA ; Site B: hostB1 - borderB ; provider core.
  net.add_link("hostA1", "borderA");
  net.add_link("hostB1", "borderB");
  net.add_link("borderA", "core");
  net.add_link("core", "borderB");

  // Both site DIFs use the SAME addresses — private to each DIF.
  node::DifSpec siteA = mk_dif("siteA", {"borderA", "hostA1"});
  siteA.addresses["borderA"] = naming::Address{1, 1};
  siteA.addresses["hostA1"] = naming::Address{1, 2};
  node::DifSpec siteB = mk_dif("siteB", {"borderB", "hostB1"});
  siteB.addresses["borderB"] = naming::Address{1, 1};
  siteB.addresses["hostB1"] = naming::Address{1, 2};
  if (!net.build_link_dif(siteA).ok() || !net.build_link_dif(siteB).ok()) return 1;
  if (!net.build_link_dif(mk_dif("provider", {"core", "borderA", "borderB"})).ok())
    return 1;

  // Corporate overlay across both sites and the provider.
  node::DifSpec corp = mk_dif("corp", {"borderA", "hostA1", "borderB", "hostB1"});
  corp.cfg.auth_policy = dif::AuthPolicy::password;
  corp.cfg.auth_secret = "corp-secret";
  if (!net.build_overlay_dif(
              corp, {{"hostA1", "borderA", naming::DifName{"siteA"}, {}},
                     {"borderA", "borderB", naming::DifName{"provider"}, {}},
                     {"borderB", "hostB1", naming::DifName{"siteB"}, {}}})
           .ok())
    return 1;

  {
    auto* a = net.node("hostA1").ipcp(naming::DifName{"siteA"});
    auto* b = net.node("hostB1").ipcp(naming::DifName{"siteB"});
    bool same = a->address() == b->address();
    t.add_row({"same addresses in both sites",
               same ? "yes (" + a->address().to_string() + " twice), 0 conflicts"
                    : "BUG",
               "impossible without NAT (must renumber)"});
  }

  // Unsolicited inbound: hostB1 (site B) opens a flow to a server app on
  // hostA1 (site A) by NAME through the corporate DIF.
  {
    Sink sink(net.sched());
    install_sink(net, "hostA1", naming::AppName("srvA"), naming::DifName{"corp"},
                 sink);
    flow::Flow inbound = net.node("hostB1").allocate_flow(
        naming::AppName("peerB"), naming::AppName("srvA"),
        flow::QosSpec::reliable_default());
    net.run_until([&] { return !inbound.is_allocating(); }, SimTime::from_sec(1));
    bool inbound_ok = inbound.is_open();
    if (inbound_ok) (void)inbound.write(BytesView{to_bytes("hello")});
    net.run_for(SimTime::from_sec(1));

    // Baseline comparator: NAT drops unsolicited inbound (measured).
    using namespace rina::baseline;
    BaselineNet bnet(1202);
    bnet.add_node("insideA", "siteA");
    bnet.add_node("natA", "siteA");
    auto [in_a, _1] = bnet.add_link("insideA", "natA", {}, "siteA");
    auto [natA_pub, _2] = bnet.add_link("natA", "bcore", {}, "core");
    auto [_3, peer_b] = bnet.add_link("bcore", "peerB", {}, "core");
    (void)_1;
    (void)_2;
    (void)_3;
    (void)peer_b;
    bnet.enable_routing();
    NatBox nat(bnet.node("natA"), natA_pub, kProtoTcp);
    auto& inside = bnet.transport("insideA");
    auto& peer = bnet.transport("peerB");
    bool nat_inbound_ok = false;
    (void)inside.listen(8080, [&](SockId) { nat_inbound_ok = true; });
    // The peer cannot even address the private host from outside; the best
    // it can do is knock on the NAT's public address and hope for a hole.
    (void)in_a;
    std::optional<Result<SockId>> res;
    peer.connect(natA_pub, 8080, {}, [&](Result<SockId> r) { res = std::move(r); });
    bnet.run_until([&] { return res.has_value(); }, SimTime::from_sec(60));

    t.add_row({"unsolicited inbound flow (P2P)",
               inbound_ok && sink.sdus() > 0 ? "delivered (by name, no tricks)"
                                             : "FAILED",
               nat_inbound_ok ? "worked (?)"
                              : std::to_string(nat.stats().get("inbound_dropped")) +
                                    " packets dropped at NAT"});
  }

  // Joining the corporate "e-mall": a new host in site A.
  {
    net.add_link("hostA2", "borderA");
    if (!net.attach_via_link(naming::DifName{"siteA"}, "hostA2", "borderA").ok())
      return 1;
    if (!net.register_overlay_member(naming::DifName{"corp"}, "borderA",
                                     naming::DifName{"siteA"})
             .ok())
      return 1;

    std::uint64_t mgmt_before =
        net.sum_dif_counter(naming::DifName{"corp"}, "riep_sent") +
        net.sum_dif_counter(naming::DifName{"corp"}, "join_requests_sent");
    SimTime t0 = net.now();
    // hostA2 creates its corp IPCP (with the right password) and enrolls
    // over a siteA flow to borderA's corp member.
    dif::DifConfig corp_cfg =
        net.node("hostA1").ipcp(naming::DifName{"corp"})->config();
    net.node("hostA2").create_ipcp(corp_cfg);
    if (!net.register_overlay_member(naming::DifName{"corp"}, "hostA2",
                                     naming::DifName{"siteA"})
             .ok())
      return 1;
    auto port = net.make_overlay_port(naming::DifName{"corp"},
                                      {"hostA2", "borderA",
                                       naming::DifName{"siteA"}, {}},
                                      "hostA2");
    if (!port.ok()) return 1;
    auto* a2 = net.node("hostA2").ipcp(naming::DifName{"corp"});
    if (!a2->enroll_via(port.value()).ok()) return 1;
    if (!net.run_until([&] { return a2->enrolled(); }, SimTime::from_sec(5)))
      return 1;
    std::uint64_t mgmt_after =
        net.sum_dif_counter(naming::DifName{"corp"}, "riep_sent") +
        net.sum_dif_counter(naming::DifName{"corp"}, "join_requests_sent");
    t.add_row({"join the corporate e-mall",
               std::to_string(mgmt_after - mgmt_before) + " msgs, " +
                   TablePrinter::num((net.now() - t0).to_ms(), 1) + " ms",
               "VPN provisioning + NAT holes (out of scope for packets)"});
  }

  t.print("C7 private networks as the norm");
  std::printf(
      "\nExpected shape: identical private addresses coexist because an\n"
      "address means nothing outside its DIF; inbound flows work by name\n"
      "with no NAT traversal machinery; joining a private network is one\n"
      "enrollment exchange under that DIF's own admission policy (§6.7).\n");
  return 0;
}
