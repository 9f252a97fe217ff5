// test_sharded_determinism — the sharded scheduler's core contract:
// results are a function of the shard PLAN, never of the THREAD count.
// Each scenario below is run at several worker counts (and re-run at
// the same count) and must produce an identical digest string every
// time: cross-shard delivery order and times, ring-full drop decisions,
// event totals, window counts, and a full sharded-Network workload. That
// workload also runs on the plain Scheduler, and a one-shard sharded
// Network must match it.
#include "sim/shard.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "node/network.hpp"
#include "sim/link.hpp"
#include "test_util.hpp"

using namespace rina;

namespace {

// ---------------------------------------------------------------------
// Two shards joined by one cross link; both sides transmit on co-prime
// periods so sends and deliveries interleave across many windows. Each
// side's delivery log is written only by its own shard and concatenated
// after the run (a shared log would itself be the race).
std::string cross_link_digest(int threads) {
  sim::ShardedScheduler ss(2, threads);
  sim::LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = SimTime::from_ms(1);
  sim::Link link(ss.shard(0), ss.shard(1), cfg, 42, "a", "b");
  ss.note_cross_delay(cfg.delay);
  link.set_cross(0, &ss.add_boundary(0, 1, 64));
  link.set_cross(1, &ss.add_boundary(1, 0, 64));
  std::string log0, log1;  // shard-local delivery logs
  link.ep(0).set_receiver([&](Packet&& p) {
    log0 += "a@" + std::to_string(ss.shard(0).now().ns) + ":" +
            std::to_string(p.view()[0]) + ";";
  });
  link.ep(1).set_receiver([&](Packet&& p) {
    log1 += "b@" + std::to_string(ss.shard(1).now().ns) + ":" +
            std::to_string(p.view()[0]) + ";";
  });
  for (int i = 0; i < 50; ++i) {
    ss.shard(0).post_at(SimTime{i * 137000}, [&link, i] {
      (void)link.ep(0).send(Packet{Bytes(32, static_cast<std::uint8_t>(i))});
    });
    ss.shard(1).post_at(SimTime{i * 173000}, [&link, i] {
      (void)link.ep(1).send(
          Packet{Bytes(32, static_cast<std::uint8_t>(100 + i))});
    });
  }
  ss.run_for(SimTime::from_ms(60));
  return log0 + "|" + log1 + "|ev=" + std::to_string(ss.executed()) +
         ",cross=" + std::to_string(ss.cross_pushed()) +
         ",drop=" + std::to_string(ss.cross_full_drops()) +
         ",win=" + std::to_string(ss.windows());
}

// ---------------------------------------------------------------------
// A capacity-1 boundary ring under a same-window burst: exactly one
// frame crosses per window, the rest are ring-full drops. The drop
// pattern is part of the deterministic result.
std::string ring_full_drop_digest(int threads) {
  sim::ShardedScheduler ss(2, threads);
  sim::LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = SimTime::from_ms(1);
  sim::Link link(ss.shard(0), ss.shard(1), cfg, 7, "a", "b");
  ss.note_cross_delay(cfg.delay);
  link.set_cross(0, &ss.add_boundary(0, 1, 1));
  link.set_cross(1, &ss.add_boundary(1, 0, 1));
  std::string log;  // written by shard 1 only
  link.ep(1).set_receiver(
      [&](Packet&& p) { log += std::to_string(p.view()[0]) + ";"; });
  for (int burst = 0; burst < 4; ++burst) {
    ss.shard(0).post_at(SimTime::from_ms(burst * 3), [&link, burst] {
      for (int k = 0; k < 3; ++k) {
        (void)link.ep(0).send(
            Packet{Bytes(32, static_cast<std::uint8_t>(burst * 10 + k))});
      }
    });
  }
  ss.run_for(SimTime::from_ms(20));
  return log + "|rx=" + std::to_string(link.counter("rx_frames")) +
         ",x=" + std::to_string(link.counter("xshard_frames")) +
         ",xd=" + std::to_string(link.counter("xshard_drops")) +
         ",ringdrop=" + std::to_string(ss.cross_full_drops());
}

// ---------------------------------------------------------------------
// One frame per window on a capacity-1 ring for many consecutive
// windows: the ring is never quiescent, so the consumer's drain and the
// producer's same-window push would race without the drain/run barrier
// — exactly the interleaving that once made drop counts vary with
// thread timing. With drains barriered ahead of the run phase the ring
// is empty when each window's pushes begin, so the only loss is the
// same-window double-push at the start (the t=0 and t=1ms sends share
// window 1): 63 of 64 frames cross and exactly one drops, at any
// thread count and on every rerun.
std::string ring_steady_state_digest(int threads) {
  sim::ShardedScheduler ss(2, threads);
  sim::LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.delay = SimTime::from_ms(1);
  sim::Link link(ss.shard(0), ss.shard(1), cfg, 11, "a", "b");
  ss.note_cross_delay(cfg.delay);
  link.set_cross(0, &ss.add_boundary(0, 1, 1));
  link.set_cross(1, &ss.add_boundary(1, 0, 1));
  std::string log;  // written by shard 1 only
  link.ep(1).set_receiver(
      [&](Packet&& p) { log += std::to_string(p.view()[0]) + ";"; });
  for (int i = 0; i < 64; ++i) {
    ss.shard(0).post_at(SimTime::from_ms(i), [&link, i] {
      (void)link.ep(0).send(Packet{Bytes(32, static_cast<std::uint8_t>(i))});
    });
  }
  ss.run_for(SimTime::from_ms(70));
  return log + "|rx=" + std::to_string(link.counter("rx_frames")) +
         ",xd=" + std::to_string(link.counter("xshard_drops")) +
         ",ringdrop=" + std::to_string(ss.cross_full_drops());
}

// ---------------------------------------------------------------------
// Full stack: four 3-node regions, two express wires carrying their own
// DIF and flows, on the plain Scheduler, on one shard, or with each
// region on its own shard (the express wires then cross shards).
struct alignas(64) Cell {
  std::uint64_t v = 0;
};

enum class Plan { plain, one_shard, four_shards };

// The digest's shared fields, then "|" and the sharded driver's windows
// and ring counts when there is one.
std::string network_digest(Plan plan, int threads) {
  node::Network net(7);
  if (plan != Plan::plain)
    net.enable_sharding(plan == Plan::one_shard ? 1 : 4, threads, /*ring_capacity=*/64);
  auto hub = [](int r) { return "h" + std::to_string(r); };
  for (int r = 0; plan == Plan::four_shards && r < 4; ++r) {
    net.assign_shard(hub(r), r);
    net.assign_shard(hub(r) + "a", r);
    net.assign_shard(hub(r) + "b", r);
  }
  for (int r = 0; r < 4; ++r) {
    net.add_link(hub(r), hub(r) + "a");
    net.add_link(hub(r), hub(r) + "b");
    node::DifSpec spec;
    spec.cfg.name = naming::DifName{"reg" + std::to_string(r)};
    spec.members = {hub(r), hub(r) + "a", hub(r) + "b"};
    if (!net.build_link_dif(spec).ok()) std::abort();
  }
  node::LinkOpts xopts;
  xopts.delay = SimTime::from_ms(2);
  net.add_link(hub(0), hub(2), xopts);
  net.add_link(hub(1), hub(3), xopts);
  node::DifSpec xspec;
  xspec.cfg.name = naming::DifName{"express"};
  xspec.members = {hub(0), hub(2), hub(1), hub(3)};
  if (!net.build_link_dif(xspec).ok()) std::abort();

  std::vector<Cell> rx(4);
  for (int p = 0; p < 2; ++p) {
    int dst = p + 2;
    std::uint64_t* cell = &rx[static_cast<std::size_t>(dst)].v;
    auto res = net.node(hub(dst)).register_app(
        naming::AppName{"x" + std::to_string(p)}, naming::DifName{"express"},
        [cell](flow::Flow f) {
          f.on_readable([cell](flow::Flow& fl) {
            while (auto sdu = fl.read()) {
              (void)sdu;
              ++*cell;
            }
          });
        });
    if (!res.ok()) std::abort();
  }
  net.run_for(SimTime::from_ms(100));
  std::vector<flow::Flow> flows;
  for (int p = 0; p < 2; ++p) {
    flows.push_back(net.node(hub(p)).allocate_flow_on(
        naming::DifName{"express"}, naming::AppName{"src" + std::to_string(p)},
        naming::AppName{"x" + std::to_string(p)}, flow::QosSpec{}));
  }
  bool open = net.run_until(
      [&] {
        for (const auto& f : flows)
          if (f.is_allocating()) return false;
        return true;
      },
      SimTime::from_sec(10));
  if (!open) std::abort();
  for (const auto& f : flows)
    if (!f.is_open()) std::abort();

  // Periodic senders on each source hub's own shard wheel.
  std::vector<Bytes> payloads(2, Bytes(48, 0xAB));
  std::vector<sim::Timer> senders;
  for (int p = 0; p < 2; ++p) {
    auto pi = static_cast<std::size_t>(p);
    sim::Scheduler* sc = &net.node(hub(p)).sched();
    flow::Flow* f = &flows[pi];
    Bytes* pay = &payloads[pi];
    senders.push_back(sc->periodic(SimTime::from_ms(7), [=] {
      (*pay)[0] = static_cast<std::uint8_t>(sc->now().ns & 0xFF);
      (void)f->write(BytesView{*pay});
    }));
  }
  net.run_for(SimTime::from_ms(300));
  senders.clear();

  std::string d = "ev=" + std::to_string(net.events_executed()) +
                  ",bytes=" + std::to_string(net.sum_link_counter("tx_bytes")) +
                  ",rxf=" + std::to_string(net.sum_link_counter("rx_frames"));
  for (const Cell& c : rx) d += "," + std::to_string(c.v);
  if (const sim::ShardedScheduler* ss = net.sharded_sched())
    d += "|win=" + std::to_string(ss->windows()) +
         ",cross=" + std::to_string(ss->cross_pushed()) +
         ",drop=" + std::to_string(ss->cross_full_drops());
  return d;
}

std::string shared_fields(const std::string& digest) {
  return digest.substr(0, digest.find('|'));
}

void check_basics() {
  // One cross frame, start to finish: pushed in window k, delivered at
  // send + serialization + delay on the far shard.
  sim::ShardedScheduler ss(2, 1);
  CHECK(ss.shard_count() == 2);
  CHECK(ss.thread_count() == 1);
  sim::LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte/us
  cfg.delay = SimTime::from_ms(1);
  sim::Link link(ss.shard(0), ss.shard(1), cfg, 3, "a", "b");
  ss.note_cross_delay(cfg.delay);
  CHECK(ss.lookahead() == SimTime::from_ms(1));
  link.set_cross(0, &ss.add_boundary(0, 1, 8));
  link.set_cross(1, &ss.add_boundary(1, 0, 8));
  SimTime arrival{};
  int rx = 0;
  link.ep(1).set_receiver([&](Packet&&) {
    arrival = ss.shard(1).now();
    ++rx;
  });
  ss.shard(0).post_at(SimTime{0},
                      [&link] { (void)link.ep(0).send(Packet{Bytes(100, 1)}); });
  ss.run_for(SimTime::from_ms(5));
  CHECK(rx == 1);
  // 100 bytes at 1 byte/us = 100 us serialization + 1 ms propagation.
  CHECK_NEAR(arrival.to_us(), 1100.0, 2.0);
  CHECK(ss.cross_pushed() == 1);
  CHECK(ss.cross_full_drops() == 0);
  CHECK(link.counter("xshard_frames") == 1);
  CHECK(link.counter("rx_frames") == 1);
  CHECK(ss.windows() == 5);  // 5 ms at 1 ms lookahead
}

}  // namespace

int main() {
  check_basics();

  std::string c1 = cross_link_digest(1);
  CHECK(!c1.empty());
  CHECK(c1.find("a@") != std::string::npos);  // both directions delivered
  CHECK(c1.find("b@") != std::string::npos);
  CHECK(c1 == cross_link_digest(2));
  CHECK(c1 == cross_link_digest(1));  // rerun at the same count

  std::string d1 = ring_full_drop_digest(1);
  CHECK(d1.find("ringdrop=0") == std::string::npos);  // drops did happen
  CHECK(d1 == ring_full_drop_digest(2));

  std::string s1 = ring_steady_state_digest(1);
  CHECK(s1.find("rx=63") != std::string::npos);  // drain precedes push
  CHECK(s1.find("ringdrop=1") != std::string::npos);  // only the window-1 pair
  CHECK(s1 == ring_steady_state_digest(2));
  CHECK(s1 == ring_steady_state_digest(2));  // rerun at 2 threads
  CHECK(s1 == ring_steady_state_digest(1));  // rerun single-threaded

  std::string n1 = network_digest(Plan::four_shards, 1);
  CHECK(n1.find("drop=0") != std::string::npos);  // no ring ever filled
  CHECK(n1 == network_digest(Plan::four_shards, 2));
  CHECK(n1 == network_digest(Plan::four_shards, 4));
  CHECK(n1 == network_digest(Plan::four_shards, 1));  // rerun stability

  // The sharded core against the plain Scheduler. One shard must stop
  // each run_until where the plain one stops, so every shared field
  // matches; four shards, whose rings never filled, match too.
  const std::string plain = network_digest(Plan::plain, 1);
  CHECK(plain.find('|') == std::string::npos);
  CHECK(shared_fields(network_digest(Plan::one_shard, 1)) == plain);
  CHECK(shared_fields(n1) == plain);

  return TEST_MAIN_RESULT();
}
