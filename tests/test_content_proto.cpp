// test_content_proto — the content request/response protocol end to end
// over a relayed DIF: basic fetch and nack, the relay's RMT content-store
// answering from cache, interest retry after a dropped request, retry
// exhaustion as a typed timeout, and flow teardown mid-exchange as a
// typed flow_closed completion.
#include "content/protocol.hpp"

#include <memory>
#include <optional>

#include "content/store.hpp"
#include "ipcp/ipcp.hpp"
#include "node/network.hpp"
#include "test_util.hpp"

using namespace rina;
using node::Network;

namespace {

node::DifSpec spec(const std::string& name, std::vector<std::string> members) {
  node::DifSpec s;
  s.cfg.name = naming::DifName{name};
  s.members = std::move(members);
  return s;
}

/// a — r — b chain; content flows ride the unreliable class (a cache
/// reply echoes the interest's seq, which only unreliable EFCP accepts).
void build_chain(Network& net, node::DifSpec s) {
  net.add_link("a", "r");
  net.add_link("r", "b");
  CHECK(net.build_link_dif(std::move(s)).ok());
  net.run_for(SimTime::from_ms(300));
}

flow::Flow open_unreliable(Network& net, const std::string& from,
                           const std::string& lapp, const std::string& rapp) {
  flow::Flow f = net.node(from).allocate_flow(
      naming::AppName(lapp), naming::AppName(rapp), flow::QosSpec::unreliable());
  CHECK(net.run_until([&] { return !f.is_allocating(); }, SimTime::from_sec(10)));
  CHECK(f.is_open());
  return f;
}

Bytes object_bytes(std::uint64_t id) {
  return Bytes(256, static_cast<std::uint8_t>(0x40 + (id & 0x3F)));
}

content::ContentServer::Provider provider() {
  return [](const std::string& name, std::uint64_t id) -> std::optional<Bytes> {
    if (name != "origin" || id >= 100) return std::nullopt;
    return object_bytes(id);
  };
}

void register_server(Network& net, content::ContentServer& srv) {
  CHECK(net.node("b")
            .register_app(naming::AppName("origin"), naming::DifName{"d"},
                          srv.accept_fn())
            .ok());
  net.run_for(SimTime::from_ms(100));
}

void test_fetch_and_nack() {
  Network net(71);
  build_chain(net, spec("d", {"a", "r", "b"}));
  content::ContentServer srv(provider());
  register_server(net, srv);

  content::ContentClient cli(net.sched(), open_unreliable(net, "a", "cli", "origin"),
                             "origin");
  std::optional<Result<Bytes>> got;
  cli.fetch(7, [&](Result<Bytes> r) { got = std::move(r); });
  CHECK(net.run_until([&] { return got.has_value(); }, SimTime::from_sec(5)));
  CHECK(got->ok());
  CHECK(got->value() == object_bytes(7));
  CHECK(srv.stats().get("requests_served") == 1);
  CHECK(cli.stats().get("fetches_ok") == 1);
  CHECK(cli.stats().get("bytes_fetched") == 256);

  // An object the origin does not have nacks back as not_found.
  got.reset();
  cli.fetch(100, [&](Result<Bytes> r) { got = std::move(r); });
  CHECK(net.run_until([&] { return got.has_value(); }, SimTime::from_sec(5)));
  CHECK(!got->ok());
  CHECK(got->error().code == Err::not_found);
  CHECK(srv.stats().get("requests_nacked") == 1);
  CHECK(cli.stats().get("fetches_nacked") == 1);
  CHECK(cli.pending() == 0);
}

void test_relay_cache_hit() {
  Network net(72);
  node::DifSpec s = spec("d", {"a", "r", "b"});
  s.cfg.rmt_content_store_objects = 64;
  build_chain(net, std::move(s));
  content::ContentServer srv(provider());
  register_server(net, srv);

  content::ContentClient cli(net.sched(), open_unreliable(net, "a", "cli", "origin"),
                             "origin");
  std::optional<Result<Bytes>> got;
  cli.fetch(7, [&](Result<Bytes> r) { got = std::move(r); });
  CHECK(net.run_until([&] { return got.has_value(); }, SimTime::from_sec(5)));
  CHECK(got->ok());
  // First fetch went to the origin; the relay cached the passing data PDU.
  CHECK(srv.stats().get("requests_served") == 1);
  auto* relay_store = net.node("r").ipcp(naming::DifName{"d"})->content_store();
  CHECK(relay_store != nullptr);
  CHECK(relay_store->contains_live(content::ObjectKey{"origin", 7}));

  // Second fetch of the same object: answered by the relay, origin idle.
  got.reset();
  cli.fetch(7, [&](Result<Bytes> r) { got = std::move(r); });
  CHECK(net.run_until([&] { return got.has_value(); }, SimTime::from_sec(5)));
  CHECK(got->ok());
  CHECK(got->value() == object_bytes(7));
  CHECK(srv.stats().get("requests_served") == 1);  // unchanged
  CHECK(net.sum_dif_counter(naming::DifName{"d"}, "cs_replies") == 1);
  CHECK(net.sum_dif_counter(naming::DifName{"d"}, "cs_hits") == 1);
  CHECK(cli.stats().get("fetches_ok") == 2);
}

void test_interest_retry() {
  Network net(73);
  build_chain(net, spec("d", {"a", "r", "b"}));

  // A flaky responder: swallows the first interest, serves the rest.
  int seen = 0;
  CHECK(net.node("b")
            .register_app(
                naming::AppName("origin"), naming::DifName{"d"},
                [&seen](flow::Flow f) {
                  f.on_readable([&seen](flow::Flow& fl) {
                    while (auto sdu = fl.read()) {
                      if (++seen == 1) continue;  // drop the first on the floor
                      auto m = content::decode(BytesView{*sdu});
                      CHECK(m.ok());
                      (void)fl.write(BytesView{content::encode_data(
                          m.value().request_id, m.value().name,
                          m.value().object_id,
                          BytesView{object_bytes(m.value().object_id)})});
                    }
                  });
                })
            .ok());
  net.run_for(SimTime::from_ms(100));

  content::ContentClient::Options opt;
  opt.interest_timeout = SimTime::from_ms(50);
  opt.max_retries = 3;
  content::ContentClient cli(net.sched(), open_unreliable(net, "a", "cli", "origin"),
                             "origin", opt);
  std::optional<Result<Bytes>> got;
  cli.fetch(3, [&](Result<Bytes> r) { got = std::move(r); });
  CHECK(net.run_until([&] { return got.has_value(); }, SimTime::from_sec(5)));
  CHECK(got->ok());
  CHECK(got->value() == object_bytes(3));
  CHECK(cli.stats().get("interest_retries") == 1);
  CHECK(cli.stats().get("interest_timeouts") == 0);
  CHECK(seen == 2);
}

void test_interest_timeout() {
  Network net(74);
  build_chain(net, spec("d", {"a", "r", "b"}));

  // A black hole: accepts flows, never answers.
  CHECK(net.node("b")
            .register_app(naming::AppName("origin"), naming::DifName{"d"},
                          [](flow::Flow) {})
            .ok());
  net.run_for(SimTime::from_ms(100));

  content::ContentClient::Options opt;
  opt.interest_timeout = SimTime::from_ms(30);
  opt.max_retries = 2;
  content::ContentClient cli(net.sched(), open_unreliable(net, "a", "cli", "origin"),
                             "origin", opt);
  std::optional<Result<Bytes>> got;
  cli.fetch(3, [&](Result<Bytes> r) { got = std::move(r); });
  CHECK(net.run_until([&] { return got.has_value(); }, SimTime::from_sec(5)));
  CHECK(!got->ok());
  CHECK(got->error().code == Err::timeout);
  CHECK(cli.stats().get("interest_retries") == 2);  // resends after the first
  CHECK(cli.stats().get("interest_timeouts") == 1);
  CHECK(cli.pending() == 0);
}

void test_teardown_midflight() {
  Network net(75);
  build_chain(net, spec("d", {"a", "r", "b"}));

  // The server side holds its flow handle and never replies, then tears
  // the flow down with a fetch still in flight.
  auto server_flow = std::make_shared<std::optional<flow::Flow>>();
  CHECK(net.node("b")
            .register_app(naming::AppName("origin"), naming::DifName{"d"},
                          [server_flow](flow::Flow f) {
                            *server_flow = std::move(f);
                          })
            .ok());
  net.run_for(SimTime::from_ms(100));

  content::ContentClient::Options opt;
  opt.interest_timeout = SimTime::from_sec(5);  // retry won't fire first
  content::ContentClient cli(net.sched(), open_unreliable(net, "a", "cli", "origin"),
                             "origin", opt);
  std::optional<Result<Bytes>> got;
  cli.fetch(3, [&](Result<Bytes> r) { got = std::move(r); });
  net.run_for(SimTime::from_ms(200));
  CHECK(!got.has_value());
  CHECK(server_flow->has_value());

  (*server_flow)->deallocate();
  CHECK(net.run_until([&] { return got.has_value(); }, SimTime::from_sec(5)));
  CHECK(!got->ok());
  CHECK(got->error().code == Err::flow_closed);
  CHECK(cli.stats().get("fetch_failed_flow_closed") == 1);
  CHECK(cli.pending() == 0);

  // Fetching on the now-closed flow fails immediately, typed the same.
  std::optional<Result<Bytes>> again;
  cli.fetch(4, [&](Result<Bytes> r) { again = std::move(r); });
  CHECK(again.has_value());
  CHECK(!again->ok());
  CHECK(again->error().code == Err::flow_closed);
}

}  // namespace

int main() {
  test_fetch_and_nack();
  test_relay_cache_hit();
  test_interest_retry();
  test_interest_timeout();
  test_teardown_midflight();
  return TEST_MAIN_RESULT();
}
