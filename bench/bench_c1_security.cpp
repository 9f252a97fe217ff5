// bench_c1_security — §6.1: "the IPC facility is impervious to attacks
// from outside the facility". The attacker has a wire into the network but
// no credentials. Three attack vectors against both architectures:
//
//   host discovery  — probe for live hosts/services (baseline: RSTs leak
//                     liveness from every closed port);
//   service access  — reach an application without authorization
//                     (baseline: any source can SYN a well-known port);
//   data injection  — spray forged data packets at guessed identifiers.
//
// Plus the enrollment-policy sweep: what it takes to get INSIDE a DIF
// under each authentication policy.
#include "baseline/net.hpp"
#include "common.hpp"
#include "efcp/pci.hpp"

using namespace rina;
using namespace rina::benchx;

int main() {
  std::printf("C1 — §6.1 security: attacker with a wire but no credentials\n");

  // ---------------- RINA target: a psk-protected DIF ----------------
  Network net(801);
  net.add_link("gw", "srv");
  node::DifSpec spec = mk_dif("secure", {"gw", "srv"});
  spec.cfg.auth_policy = dif::AuthPolicy::psk_challenge;
  spec.cfg.auth_secret = "correct horse battery staple";
  if (!net.build_link_dif(spec).ok()) return 1;
  net.add_link("eve", "gw");

  std::uint64_t app_deliveries = 0;
  if (!net.node("srv")
           .register_app(naming::AppName("payroll"), naming::DifName{"secure"},
                         [&app_deliveries](flow::Flow f) {
                           f.on_readable([&app_deliveries](flow::Flow& fl) {
                             while (fl.read()) ++app_deliveries;
                           });
                         })
           .ok())
    return 1;
  net.run_for(SimTime::from_ms(50));

  // Eve builds her own IPC process claiming the same DIF name but with the
  // wrong key, and wires it to the gateway's link.
  dif::DifConfig eve_cfg = spec.cfg;
  eve_cfg.auth_secret = "guessed wrong";
  auto& eve_ipcp = net.node("eve").create_ipcp(eve_cfg);
  auto ports = net.wire_ipcps(naming::DifName{"secure"}, "eve", "gw");
  if (!ports.ok()) return 1;
  relay::PortIndex eve_port = ports.value().first;

  auto* gw = net.node("gw").ipcp(naming::DifName{"secure"});

  TablePrinter t({"attack", "architecture", "probes", "responses to attacker",
                  "attacker successes"});

  // Attack 1 (RINA): enrollment with the wrong key, 3 engine attempts.
  {
    (void)eve_ipcp.enroll_via(eve_port);
    net.run_for(SimTime::from_sec(2));
    std::uint64_t rejects = gw->stats().get("joins_rejected");
    t.add_row({"join the network", "RINA (psk DIF)",
               TablePrinter::integer(
                   gw->stats().get("join_requests_received")),
               TablePrinter::integer(rejects) + " rejects",
               eve_ipcp.enrolled() ? "ENROLLED (!)" : "0"});
  }

  // Attack 2 (RINA): forged data PDUs at guessed addresses / CEP-ids.
  {
    std::uint64_t before_drops = gw->stats().get("drop_unenrolled_port");
    const int kProbes = 64;
    for (int i = 0; i < kProbes; ++i) {
      efcp::Pdu pdu;
      pdu.pci.type = efcp::PduType::data;
      pdu.pci.flags = efcp::kFlagFirstFrag | efcp::kFlagLastFrag;
      pdu.pci.dest = naming::Address{1, static_cast<std::uint16_t>(1 + i % 4)};
      pdu.pci.src = naming::Address{1, 99};
      pdu.pci.dest_cep = static_cast<efcp::CepId>(1 + i);
      pdu.pci.seq = 1;
      pdu.payload = to_bytes("malicious");
      (void)eve_ipcp.rmt().egress_via(eve_port, std::move(pdu));
    }
    net.run_for(SimTime::from_ms(200));
    std::uint64_t dropped =
        gw->stats().get("drop_unenrolled_port") - before_drops;
    t.add_row({"inject forged data", "RINA (psk DIF)",
               TablePrinter::integer(kProbes),
               "0 (silent drop of " + std::to_string(dropped) + ")",
               TablePrinter::integer(app_deliveries)});
  }

  // Attack 3 (RINA): service discovery — there is no request an outsider
  // can even address: names resolve only inside the DIF, addresses are
  // never visible outside it, and the RMT drops everything non-member.
  t.add_row({"scan for services", "RINA (psk DIF)", "n/a",
             "0 (no name/address surface exists for non-members)", "0"});

  // ---------------- baseline target: the open internet ----------------
  {
    using namespace rina::baseline;
    BaselineNet bnet(802);
    bnet.add_link("eve", "r");
    auto [_, victim_addr] = bnet.add_link("r", "victim");
    (void)_;
    bnet.enable_routing();
    auto& victim = bnet.transport("victim");
    auto& eve = bnet.transport("eve");
    std::uint64_t accepted = 0;
    (void)victim.listen(80, [&](SockId) { ++accepted; });

    const int kPorts = 32;
    int liveness_leaks = 0, open_found = 0, done = 0;
    for (int p = 0; p < kPorts; ++p) {
      eve.connect(victim_addr, static_cast<std::uint16_t>(70 + p), {},
                  [&](Result<SockId> r) {
                    ++done;
                    if (r.ok()) {
                      ++open_found;
                      ++liveness_leaks;  // SYN|ACK also proves liveness
                    } else if (r.error().code == Err::flow_closed) {
                      ++liveness_leaks;  // RST: closed but host is alive
                    }
                  });
    }
    bnet.run_until([&] { return done == kPorts; }, SimTime::from_sec(60));
    bnet.run_for(SimTime::from_ms(100));  // let the final ACKs land
    t.add_row({"scan for services", "baseline TCP/IP",
               TablePrinter::integer(kPorts),
               std::to_string(liveness_leaks) + " liveness leaks (RST/SYNACK)",
               std::to_string(open_found) + " open port(s) found"});
    t.add_row({"reach the application", "baseline TCP/IP", "1",
               "SYN|ACK from well-known port",
               accepted > 0 ? "CONNECTED — app reached" : "0"});
  }

  t.print("C1 attack surface: member-only DIF vs public addresses");

  // ---------------- enrollment policy sweep ----------------
  TablePrinter t2({"auth policy", "credentials", "outcome", "mgmt msgs"});
  const std::pair<dif::AuthPolicy, const char*> policies[] = {
      {dif::AuthPolicy::none, "none"},
      {dif::AuthPolicy::password, "password"},
      {dif::AuthPolicy::psk_challenge, "psk-challenge"}};
  for (const auto& [policy, label] : policies) {
    for (bool correct : {true, false}) {
      if (policy == dif::AuthPolicy::none && !correct) continue;
      Network n2(803);
      n2.add_link("a", "b");
      node::DifSpec s2 = mk_dif("d", {"a"});
      s2.cfg.auth_policy = policy;
      s2.cfg.auth_secret = "k3y";
      if (!n2.build_link_dif(s2).ok()) return 1;
      auto* a = n2.node("a").ipcp(naming::DifName{"d"});
      dif::DifConfig jc = s2.cfg;
      if (!correct) jc.auth_secret = "wrong";
      auto& joiner = n2.node("b").create_ipcp(jc);
      auto wires = n2.wire_ipcps(naming::DifName{"d"}, "a", "b");
      if (!wires.ok()) return 1;
      (void)joiner.enroll_via(wires.value().second);
      n2.run_until([&] { return joiner.enrolled(); }, SimTime::from_sec(1));
      std::uint64_t msgs = a->stats().get("join_requests_received") +
                           a->stats().get("joins_accepted") +
                           a->stats().get("joins_rejected") +
                           a->stats().get("members_admitted");
      t2.add_row({label, correct ? "correct" : "wrong",
                  joiner.enrolled() ? "admitted" : "rejected",
                  TablePrinter::integer(msgs)});
    }
  }
  t2.print("C1 enrollment under each authentication policy");

  std::printf(
      "\nExpected shape: the baseline leaks liveness from every probed port\n"
      "and lets any source reach a well-known service; the DIF answers an\n"
      "outsider with silence — the only attack surface is the enrollment\n"
      "exchange itself, which the DIF's policy controls (§6.1).\n");
  return 0;
}
