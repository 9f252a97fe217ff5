// test_bytes — BufReader/BufWriter round trips, short-read latching,
// length-prefix overflow latching, adversarial/corrupt-frame hardening
// of the PCI, RIEP and CNT1 decoders, and Result<T> error paths.
#include "common/bytes.hpp"

#include <string>

#include "common/result.hpp"
#include "content/protocol.hpp"
#include "efcp/pci.hpp"
#include "rib/riep.hpp"
#include "test_util.hpp"

using namespace rina;

static void roundtrip() {
  BufWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_lpstring("hello");
  w.put_lpbytes(to_bytes("payload"));
  Bytes b = std::move(w).take();

  BufReader r{BytesView{b}};
  CHECK(r.get_u8() == 0xAB);
  CHECK(r.get_u16() == 0x1234);
  CHECK(r.get_u32() == 0xDEADBEEF);
  CHECK(r.get_u64() == 0x0123456789ABCDEFULL);
  CHECK(r.get_lpstring() == "hello");
  CHECK(to_string(BytesView{r.get_lpbytes()}) == "payload");
  CHECK(r.ok());
  CHECK(r.remaining() == 0);
}

static void short_read_latches() {
  Bytes b{0x01, 0x02};
  BufReader r{BytesView{b}};
  CHECK(r.get_u32() == 0);  // underflow yields zero...
  CHECK(!r.ok());           // ...and latches failure
  CHECK(r.get_u64() == 0);  // further reads stay zero
  CHECK(r.get_bytes(10).empty());
  CHECK(!r.ok());
}

static void lp_overrun_is_safe() {
  // A length prefix larger than the buffer must not read out of range.
  BufWriter w;
  w.put_u16(9999);
  Bytes b = std::move(w).take();
  BufReader r{BytesView{b}};
  CHECK(r.get_lpstring().empty());
  CHECK(!r.ok());
}

static void writer_latches_oversize_lp() {
  // A string longer than the u16 length prefix can describe must not be
  // written with a silently-truncated length.
  BufWriter w;
  w.put_u8(0x01);
  CHECK(w.ok());
  std::string huge(70000, 'x');
  w.put_lpstring(huge);
  CHECK(!w.ok());
  Bytes b = std::move(w).take();
  CHECK(b.empty());  // a latched writer yields an empty (rejectable) frame

  BufWriter w2;
  w2.put_lpstring(std::string(65535, 'y'));  // exactly at the limit: fine
  CHECK(w2.ok());
  CHECK(std::move(w2).take().size() == 2 + 65535);
}

static void reader_rejects_adversarial_lp_lengths() {
  // A length prefix claiming ~4 GiB over a tiny buffer: rejected up
  // front, no allocation proportional to the claim.
  BufWriter w;
  w.put_u32(0xFFFFFFFFu);
  w.put_u8(0x42);
  Bytes b = std::move(w).take();
  BufReader r{BytesView{b}};
  Bytes blob = r.get_lpbytes();
  CHECK(blob.empty());
  CHECK(!r.ok());
  CHECK(r.get_u8() == 0);  // latched: nothing more comes out
}

// Fuzz-ish: corrupt frames (bit flips, truncations, adversarial length
// prefixes) thrown at every wire-format decoder: the PCI, RIEP, and the
// CNT1 content messages (an interest and a data object). Every outcome
// must be a clean accept or a clean reject — never a crash, hang, or
// giant allocation (ASan/UBSan in CI watch the memory side).
static void corrupt_frame_fuzz() {
  // Deterministic xorshift so failures reproduce.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  efcp::Pdu pdu;
  pdu.pci.dest = naming::Address{2, 7};
  pdu.pci.src = naming::Address{1, 3};
  pdu.pci.seq = 99;
  pdu.payload = to_bytes("fuzz seed payload for corrupt frame tests");

  rib::RiepMessage m;
  m.op = rib::RiepOp::write;
  m.obj_class = rib::ObjClass::sync;
  m.value = to_bytes("opaque value bytes");

  const Bytes object = to_bytes("a content object of some length");
  enum Codec { kPci, kRiep, kInterest, kData, kCodecs };
  const Bytes seeds[kCodecs] = {
      pdu.encode(), m.encode(), content::encode_interest(7, "/videos/cat", 42),
      content::encode_data(7, "/videos/cat", 42, BytesView{object})};

  int accepted[kCodecs] = {};
  constexpr int kRounds = 8000;
  for (int i = 0; i < kRounds; ++i) {
    Codec c = static_cast<Codec>(i % kCodecs);
    Bytes f = seeds[c];
    // 1-4 mutations: flip a byte, or stomp a plausible length prefix.
    int muts = 1 + static_cast<int>(next() % 4);
    for (int k = 0; k < muts; ++k) {
      std::size_t at = next() % f.size();
      if (next() % 4 == 0 && at + 4 <= f.size()) {
        store_be32(f.data() + at, static_cast<std::uint32_t>(next()));
      } else {
        f[at] ^= static_cast<std::uint8_t>(1u << (next() % 8));
      }
    }
    if (next() % 3 == 0) f.resize(next() % (f.size() + 1));  // truncate too
    bool ok = false;
    if (c == kPci) {
      ok = efcp::Pdu::decode(BytesView{f}).ok();
    } else if (c == kRiep) {
      ok = rib::RiepMessage::decode(BytesView{f}).ok();
    } else {
      auto d = content::decode(BytesView{f});
      if (d.ok()) {
        ok = true;
        // The object views into the frame: reading it all must stay
        // inside the buffer, and the cheap peek must agree.
        unsigned sum = 0;
        for (std::uint8_t byte : d.value().object) sum += byte;
        (void)sum;
        CHECK(content::looks_like_content(BytesView{f}));
      }
    }
    if (ok) ++accepted[c];
  }
  // Some mutations only touch the payload and still decode — that is
  // fine; the point is that nothing above ever crashed or over-read,
  // and that no decoder accepted everything it was fed.
  for (int c = 0; c < kCodecs; ++c) CHECK(accepted[c] < kRounds / kCodecs);
}

static void views() {
  Bytes b = to_bytes("abcdef");
  BytesView v{b};
  CHECK(v.size() == 6);
  CHECK(v.subview(2).size() == 4);
  CHECK(v.subview(2)[0] == 'c');
  CHECK(v.subview(99).empty());
  CHECK(v.first(3).size() == 3);
  CHECK(v.first(99).size() == 6);
}

static void result_paths() {
  Result<int> ok{41};
  CHECK(ok.ok());
  CHECK(ok.value() == 41);

  Result<int> err{Err::timeout, "too slow"};
  CHECK(!err.ok());
  CHECK(err.error().code == Err::timeout);
  CHECK(err.error().to_string() == "timeout: too slow");

  Result<void> vok = Ok();
  CHECK(vok.ok());
  Result<void> verr{Err::flow_closed};
  CHECK(!verr.ok());
  CHECK(verr.error().code == Err::flow_closed);
  CHECK(verr.error().to_string() == std::string("flow-closed"));

  // Error propagation out of a Result of a different type.
  Result<std::pair<int, int>> perr{Error{Err::not_found, "x"}};
  CHECK(!perr.ok());
  CHECK(perr.error().code == Err::not_found);
}

int main() {
  roundtrip();
  short_read_latches();
  lp_overrun_is_safe();
  writer_latches_oversize_lp();
  reader_rejects_adversarial_lp_lengths();
  corrupt_frame_fuzz();
  views();
  result_paths();
  return TEST_MAIN_RESULT();
}
