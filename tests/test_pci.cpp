// test_pci — EFCP PCI encode -> decode identity and corrupt-frame
// rejection, plus RIEP message round trips.
#include "efcp/pci.hpp"
#include "rib/riep.hpp"

#include "test_util.hpp"

using namespace rina;

static void pdu_roundtrip() {
  efcp::Pdu p;
  p.pci.type = efcp::PduType::data;
  p.pci.flags = efcp::kFlagFirstFrag | efcp::kFlagLastFrag | efcp::kFlagRetransmit;
  p.pci.qos_id = 7;
  p.pci.dest = naming::Address{3, 42};
  p.pci.src = naming::Address{1, 9};
  p.pci.dest_cep = 1001;
  p.pci.src_cep = 2002;
  p.pci.ttl = 13;
  p.pci.seq = 0xFEEDFACECAFEF00DULL;
  p.payload = to_bytes("the quick brown fox");

  Bytes wire = p.encode();
  auto d = efcp::Pdu::decode(BytesView{wire});
  CHECK(d.ok());
  const efcp::Pdu& q = d.value();
  CHECK(q.pci.type == p.pci.type);
  CHECK(q.pci.flags == p.pci.flags);
  CHECK(q.pci.qos_id == p.pci.qos_id);
  CHECK(q.pci.dest == p.pci.dest);
  CHECK(q.pci.src == p.pci.src);
  CHECK(q.pci.dest_cep == p.pci.dest_cep);
  CHECK(q.pci.src_cep == p.pci.src_cep);
  CHECK(q.pci.ttl == p.pci.ttl);
  CHECK(q.pci.seq == p.pci.seq);
  CHECK(q.payload == p.payload);
}

static void pdu_empty_payload() {
  efcp::Pdu p;
  p.pci.type = efcp::PduType::ack;
  p.pci.seq = 5;
  Bytes wire = p.encode();
  auto d = efcp::Pdu::decode(BytesView{wire});
  CHECK(d.ok());
  CHECK(d.value().payload.empty());
  CHECK(d.value().pci.seq == 5);
}

static void pdu_corrupt() {
  efcp::Pdu p;
  p.payload = to_bytes("x");
  Bytes wire = p.encode();

  // Truncated header.
  CHECK(!efcp::Pdu::decode(BytesView{wire}.first(10)).ok());
  // Truncated payload (length mismatch).
  CHECK(!efcp::Pdu::decode(BytesView{wire}.first(wire.size() - 1)).ok());
  // Bad version.
  Bytes bad = wire;
  bad[0] = 99;
  CHECK(!efcp::Pdu::decode(BytesView{bad}).ok());
  // Bad type.
  bad = wire;
  bad[1] = 0;
  CHECK(!efcp::Pdu::decode(BytesView{bad}).ok());
  // Empty frame.
  CHECK(!efcp::Pdu::decode(BytesView{}).ok());
}

static void riep_roundtrip() {
  rib::RiepMessage m;
  m.op = rib::RiepOp::write;
  m.obj_class = rib::ObjClass::sync;
  m.invoke_id = 424242;
  m.value = to_bytes("opaque");
  Bytes wire = m.encode();
  // u8 op | u8 class | u32 invoke_id | lp32 value: a 10-byte header.
  CHECK(wire.size() == 10 + m.value.size());
  auto d = rib::RiepMessage::decode(BytesView{wire});
  CHECK(d.ok());
  CHECK(d.value().op == rib::RiepOp::write);
  CHECK(d.value().obj_class == rib::ObjClass::sync);
  CHECK(d.value().invoke_id == 424242);
  CHECK(d.value().value == m.value);

  // Every class round-trips; the bytes on either side of the range do not.
  for (int c = 1; c <= static_cast<int>(rib::kLastObjClass); ++c) {
    m.obj_class = static_cast<rib::ObjClass>(c);
    auto dc = rib::RiepMessage::decode(BytesView{m.encode()});
    CHECK(dc.ok() && dc.value().obj_class == m.obj_class);
  }
  auto with_byte = [&](std::size_t at, std::uint8_t v) {
    Bytes bad = wire;
    bad[at] = v;
    return rib::RiepMessage::decode(BytesView{bad}).ok();
  };
  CHECK(!with_byte(0, 0));  // op 0
  CHECK(!with_byte(0, 8));  // op past reply
  CHECK(!with_byte(1, 0));  // class 0
  CHECK(!with_byte(1, static_cast<std::uint8_t>(rib::kLastObjClass) + 1));
  CHECK(with_byte(1, static_cast<std::uint8_t>(rib::kLastObjClass)));

  // A short header, a value shorter than its length, trailing bytes.
  CHECK(!rib::RiepMessage::decode(BytesView{wire}.first(5)).ok());
  CHECK(!rib::RiepMessage::decode(BytesView{wire}.first(9)).ok());
  CHECK(!rib::RiepMessage::decode(BytesView{wire}.first(wire.size() - 1)).ok());
  Bytes trailing = wire;
  trailing.push_back(0);
  CHECK(!rib::RiepMessage::decode(BytesView{trailing}).ok());
  CHECK(!rib::RiepMessage::decode(BytesView{}).ok());
}

int main() {
  pdu_roundtrip();
  pdu_empty_payload();
  pdu_corrupt();
  riep_roundtrip();
  return TEST_MAIN_RESULT();
}
