// test_packet — the zero-copy Packet buffer: one heap allocation per
// fresh buffer and none for a pooled one, prepend/pull round trips,
// headroom-exhaustion fallback, the frontier sharing rule (copy-on-write
// only when a parked handle prepends), the counted copies at the edges
// (Packet(const Bytes&), take_bytes), and the end-to-end "one payload
// copy per SDU" invariant through stacked reliable EFCP connections
// with retransmit queues and lossy wires.
#include "common/packet.hpp"

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "efcp/connection.hpp"
#include "efcp/pci.hpp"
#include "efcp_stack_harness.hpp"
#include "test_util.hpp"

// Heap allocations made by this process, for the buffer checks.
static std::size_t g_allocs = 0;

__attribute__((noinline)) void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace rina;

// A buffer is one block, header and bytes: a fresh one costs exactly one
// heap allocation while it is held, and one taken back from its class's
// free list costs none. Runs first, so the 8 KiB class is still unused.
static void one_allocation_per_buffer() {
  (void)packet_counters();  // the thread's counter block exists before counting
  const Bytes payload(6000, 0x5A);  // + default headroom: the 8 KiB class
  std::size_t before = g_allocs;
  {
    Packet p = Packet::with_headroom(kDefaultHeadroom, BytesView{payload});
    CHECK(g_allocs == before + 1);
    CHECK(p == payload);
  }
  before = g_allocs;
  const auto hits = packet_counters().arena_hits;
  {
    Packet again = Packet::with_headroom(kDefaultHeadroom, BytesView{payload});
    CHECK(packet_counters().arena_hits == hits + 1);
    CHECK(again == payload);
  }
  CHECK(g_allocs == before);
}

static void prepend_pull_roundtrip() {
  Bytes payload = to_bytes("payload-bytes");
  Packet p = Packet::with_headroom(64, BytesView{payload});
  CHECK(p.size() == payload.size());
  CHECK(p.headroom() == 64);
  CHECK(p == payload);

  std::uint8_t* h = p.prepend(4);
  store_be32(h, 0xAABBCCDD);
  CHECK(p.size() == payload.size() + 4);
  CHECK(p.headroom() == 60);
  CHECK(p[0] == 0xAA);
  CHECK(p[3] == 0xDD);

  p.pull(4);
  CHECK(p == payload);

  // A second layer: prepend, pull, contents intact throughout.
  store_be16(p.prepend(2), 0x1234);
  store_be16(p.prepend(2), 0x5678);
  CHECK(p[0] == 0x56 && p[2] == 0x12);
  p.pull(2);
  p.pull(2);
  CHECK(p == payload);

  p.trim(6);
  CHECK(p.size() == payload.size() - 6);
  CHECK(to_string(p.view()) == "payload");
}

static void headroom_exhaustion_falls_back() {
  Bytes payload = to_bytes("xyz");
  Packet p = Packet::with_headroom(4, BytesView{payload});
  auto before = packet_counters();
  std::uint8_t* h = p.prepend(16);  // 4 bytes of headroom: must realloc
  for (int i = 0; i < 16; ++i) h[i] = static_cast<std::uint8_t>(i);
  CHECK(packet_counters().headroom_reallocs == before.headroom_reallocs + 1);
  CHECK(packet_counters().payload_copies == before.payload_copies + 1);
  CHECK(p.size() == 19);
  CHECK(p[0] == 0 && p[15] == 15);
  p.pull(16);
  CHECK(p == payload);
  // The fallback regenerated headroom: the next prepend is free again.
  before = packet_counters();
  (void)p.prepend(64);
  CHECK(packet_counters().payload_copies == before.payload_copies);
}

static void frontier_sharing_and_cow() {
  Bytes payload = to_bytes("shared-payload");
  Packet frame = Packet::with_headroom(64, BytesView{payload});
  Packet parked = frame.share();  // e.g. an EFCP retransmit-queue handle
  CHECK(!frame.unique());

  // The traveling frame sits at the buffer's frontier: lower layers
  // prepend in place, no copy, and the parked handle's view is untouched.
  auto before = packet_counters();
  store_be32(frame.prepend(4), 1);
  store_be32(frame.prepend(4), 2);
  CHECK(packet_counters().payload_copies == before.payload_copies);
  CHECK(packet_counters().cow_copies == before.cow_copies);
  CHECK(parked == payload);

  // Retransmission: the parked handle is no longer at the frontier (the
  // frame prepended below it), so its prepend must copy-on-write.
  before = packet_counters();
  Packet retx = parked.share();
  store_be32(retx.prepend(4), 3);
  CHECK(packet_counters().cow_copies == before.cow_copies + 1);
  CHECK(packet_counters().payload_copies == before.payload_copies + 1);
  retx.pull(4);
  CHECK(retx == payload);
  // ...and neither the original frame nor the parked handle moved.
  CHECK(parked == payload);
  CHECK(frame.size() == payload.size() + 8);
  frame.pull(8);
  CHECK(frame == payload);
}

static void take_bytes_copies_the_view() {
  Bytes b = to_bytes("copy-me");
  Packet offset = Packet::with_headroom(8, BytesView{b});
  auto before = packet_counters();
  Bytes out = std::move(offset).take_bytes();
  CHECK(out == b);
  CHECK(packet_counters().payload_copies == before.payload_copies + 1);
}

// The convenience constructor copies into a buffer without headroom, and
// the copy is counted like every other.
static void bytes_constructor_copies() {
  Bytes b = to_bytes("copied-in");
  auto before = packet_counters();
  Packet p{b};
  CHECK(p == b);
  CHECK(p.headroom() == 0);
  CHECK(packet_counters().allocs == before.allocs + 1);
  CHECK(packet_counters().payload_copies == before.payload_copies + 1);
}

static void empty_packet_prepend_allocates() {
  Packet p;  // an ack: no payload at all
  CHECK(p.empty());
  store_be16(p.prepend(2), 0xBEEF);
  CHECK(p.size() == 2);
  CHECK(p[0] == 0xBE);
  store_be32(p.prepend(4), 9);  // headroom regenerated by the first prepend
  CHECK(p.size() == 6);
}

static void pdu_encode_decode_in_place() {
  efcp::Pdu p;
  p.pci.type = efcp::PduType::data;
  p.pci.dest = naming::Address{3, 42};
  p.pci.src = naming::Address{1, 9};
  p.pci.seq = 77;
  Bytes payload = to_bytes("in-place payload");
  p.payload = Packet::with_headroom(kDefaultHeadroom, BytesView{payload});

  auto before = packet_counters();
  Packet wire = std::move(p).encode_packet();
  auto decoded = efcp::Pdu::decode_packet(std::move(wire));
  CHECK(decoded.ok());
  CHECK(decoded.value().pci.seq == 77);
  CHECK(decoded.value().pci.dest == (naming::Address{3, 42}));
  CHECK(decoded.value().payload == payload);
  // Encode prepends into headroom, decode pulls in place: zero copies.
  CHECK(packet_counters().payload_copies == before.payload_copies);
}

// Three stacked reliable EFCP connections (each layer's PDUs ride the
// layer below as SDUs) over a lossy bottom wire: every SDU is delivered
// intact, and the copy ledger shows ≈1 payload copy per accepted SDU —
// the edge copy — plus one copy-on-write per actual retransmission.
static void stacked_efcp_one_copy_per_sdu() {
  constexpr std::size_t kDepth = 3;
  sim::Scheduler sched;
  efcp::EfcpPolicies pol;

  std::vector<std::string> delivered;
  int wire_count = 0;
  testx::EfcpStack stack;
  stack.build(
      sched, kDepth, pol,
      [&delivered](Packet&& sdu) { delivered.push_back(to_string(sdu.view())); },
      [&wire_count](const efcp::Pdu& pdu) {
        return pdu.pci.type == efcp::PduType::data &&
               (pdu.pci.flags & efcp::kFlagRetransmit) == 0 &&
               ++wire_count % 7 == 0;
      });

  constexpr int kSdus = 60;
  packet_counters().reset();
  for (int i = 0; i < kSdus; ++i)
    CHECK(stack.top_a(kDepth)
              .write_sdu(BytesView{to_bytes("sdu" + std::to_string(i))})
              .ok());
  sched.run();

  CHECK(delivered.size() == kSdus);
  for (int i = 0; i < kSdus; ++i)
    CHECK(delivered[static_cast<std::size_t>(i)] == "sdu" + std::to_string(i));

  std::uint64_t retx = stack.a.conns[0]->stats().get("pdus_retx") +
                       stack.b.conns[0]->stats().get("pdus_retx");
  CHECK(retx > 0);  // the wire really was lossy
  const auto& c = packet_counters();
  // ≤ 1 copy per SDU end-to-end through the 3-deep stack, plus one
  // copy-on-write for each retransmitted frame. Nothing else copies.
  CHECK(c.payload_copies == kSdus + c.cow_copies);
  CHECK(c.cow_copies <= retx);
}

int main() {
  one_allocation_per_buffer();
  prepend_pull_roundtrip();
  headroom_exhaustion_falls_back();
  frontier_sharing_and_cow();
  take_bytes_copies_the_view();
  bytes_constructor_copies();
  empty_packet_prepend_allocates();
  pdu_encode_decode_in_place();
  stacked_efcp_one_copy_per_sdu();
  return TEST_MAIN_RESULT();
}
