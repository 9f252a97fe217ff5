// pci.hpp — Protocol-Control-Information: the one header format of the
// stack. Every DIF at every rank carries the same PCI; there is no layer
// cake of different headers, only the same IPC header repeated.
//
// Wire layout (big-endian, 28 bytes fixed + payload):
//   u8  version      u8  type         u8  flags        u8  qos_id
//   u16 dest.region  u16 dest.node    u16 src.region   u16 src.node
//   u16 dest_cep     u16 src_cep      u8  ttl          u8  reserved
//   u64 seq          u16 payload_len  payload
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/packet.hpp"
#include "common/result.hpp"
#include "efcp/types.hpp"
#include "naming/names.hpp"

namespace rina::efcp {

enum class PduType : std::uint8_t {
  data = 1,
  ack = 2,
  mgmt = 3,
  keepalive = 4,
};

inline constexpr std::uint8_t kFlagFirstFrag = 0x01;
inline constexpr std::uint8_t kFlagLastFrag = 0x02;
inline constexpr std::uint8_t kFlagRetransmit = 0x04;
// Explicit congestion notification, scoped to one DIF: an RMT whose
// egress queue passes its marking threshold sets kFlagEcn on the data
// PDUs it relays; the receiving EFCP echoes kFlagEcnEcho on its next
// ack, and the sender's DTCP (aimd_ecn policy) backs off. The signal
// never leaves the DIF whose resource is congested — upper DIFs only
// ever see backpressure.
inline constexpr std::uint8_t kFlagEcn = 0x08;
inline constexpr std::uint8_t kFlagEcnEcho = 0x10;
inline constexpr std::uint8_t kPciVersion = 1;
inline constexpr std::uint8_t kDefaultTtl = 64;
// 4 (ver/type/flags/qos) + 8 (addresses) + 4 (CEPs) + 2 (ttl/reserved)
// + 8 (seq) + 2 (payload length).
inline constexpr std::size_t kPciBytes = 28;
// Largest payload the u16 length field can carry; there is no
// fragmentation, so writers must refuse anything bigger.
inline constexpr std::size_t kMaxSduBytes = 65535;

struct Pci {
  PduType type = PduType::data;
  std::uint8_t flags = kFlagFirstFrag | kFlagLastFrag;
  QosId qos_id = 0;
  naming::Address dest;
  naming::Address src;
  CepId dest_cep = 0;
  CepId src_cep = 0;
  std::uint8_t ttl = kDefaultTtl;
  std::uint64_t seq = 0;
};

/// Write `pci` into the 28 bytes at `h` (the caller prepended them).
inline void write_pci(std::uint8_t* h, const Pci& pci, std::uint16_t payload_len) {
  h[0] = kPciVersion;
  h[1] = static_cast<std::uint8_t>(pci.type);
  h[2] = pci.flags;
  h[3] = pci.qos_id;
  store_be16(h + 4, pci.dest.region);
  store_be16(h + 6, pci.dest.node);
  store_be16(h + 8, pci.src.region);
  store_be16(h + 10, pci.src.node);
  store_be16(h + 12, pci.dest_cep);
  store_be16(h + 14, pci.src_cep);
  h[16] = pci.ttl;
  h[17] = 0;  // reserved
  store_be64(h + 18, pci.seq);
  store_be16(h + 26, payload_len);
}

struct Pdu {
  Pci pci;
  Packet payload;

  /// Zero-copy encode: the PCI is written into the payload's headroom in
  /// place. Consumes the Pdu; the returned Packet IS the wire frame.
  [[nodiscard]] Packet encode_packet() && {
    auto len = static_cast<std::uint16_t>(payload.size());
    Packet frame = std::move(payload);
    write_pci(frame.prepend(kPciBytes), pci, len);
    return frame;
  }

  /// Legacy copying encode (wire-format tests, diagnostics). Works on a
  /// private copy of the payload so a const call never touches the
  /// shared buffer's frontier or skews the copy counters of the real
  /// datapath handles.
  [[nodiscard]] Bytes encode() const {
    Pdu tmp{pci, Packet::with_headroom(kPciBytes, payload.view())};
    return std::move(tmp).encode_packet().to_bytes();
  }

  /// In-place decode: parses the PCI, pulls it off the frame, and keeps
  /// the rest of the frame as the payload — no payload copy.
  static Result<Pdu> decode_packet(Packet frame) {
    BufReader r(frame.view());
    Pdu p;
    std::uint8_t version = r.get_u8();
    auto type = r.get_u8();
    p.pci.flags = r.get_u8();
    p.pci.qos_id = r.get_u8();
    p.pci.dest.region = r.get_u16();
    p.pci.dest.node = r.get_u16();
    p.pci.src.region = r.get_u16();
    p.pci.src.node = r.get_u16();
    p.pci.dest_cep = r.get_u16();
    p.pci.src_cep = r.get_u16();
    p.pci.ttl = r.get_u8();
    (void)r.get_u8();
    p.pci.seq = r.get_u64();
    std::uint16_t len = r.get_u16();
    if (!r.ok()) return {Err::decode, "short PCI"};
    if (version != kPciVersion) return {Err::decode, "bad PCI version"};
    if (type < 1 || type > 4) return {Err::decode, "bad PDU type"};
    p.pci.type = static_cast<PduType>(type);
    if (len != r.remaining()) return {Err::decode, "payload length mismatch"};
    frame.pull(kPciBytes);
    p.payload = std::move(frame);
    return p;
  }

  static Result<Pdu> decode(BytesView wire) {
    return decode_packet(Packet::with_headroom(0, wire));
  }
};

}  // namespace rina::efcp
