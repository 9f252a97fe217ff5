// riep.hpp — the exchange protocol of the Resource Information Base.
//
// All management in a DIF — enrollment, directory dissemination, routing
// updates, flow allocation — is reading and writing named objects of the
// members' RIBs. RIEP is the one wire format for those operations; the
// object class selects the handler, so "the management protocol" is a
// dispatch table over object classes rather than a zoo of separate
// protocols. The objects themselves live where they are used: the
// link-state database and the directory (naming::Directory) of each Ipcp.
//
// Wire layout: u8 op | u32 invoke_id | lp16 obj_name | lp16 obj_class |
//              lp32 value.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"

namespace rina::rib {

enum class RiepOp : std::uint8_t {
  create = 1,
  remove = 2,
  read = 3,
  write = 4,
  start = 5,
  stop = 6,
  reply = 7,
};

struct RiepMessage {
  RiepOp op = RiepOp::read;
  std::uint32_t invoke_id = 0;
  std::string obj_name;
  std::string obj_class;
  Bytes value;

  [[nodiscard]] Bytes encode() const {
    BufWriter w(16 + obj_name.size() + obj_class.size() + value.size());
    w.put_u8(static_cast<std::uint8_t>(op));
    w.put_u32(invoke_id);
    w.put_lpstring(obj_name);
    w.put_lpstring(obj_class);
    w.put_lpbytes(BytesView{value});
    // A latched writer (field too large for its length prefix) makes
    // take() yield an empty frame, which every decoder rejects cleanly.
    return std::move(w).take();
  }

  static Result<RiepMessage> decode(BytesView wire) {
    BufReader r(wire);
    RiepMessage m;
    std::uint8_t op = r.get_u8();
    m.invoke_id = r.get_u32();
    m.obj_name = r.get_lpstring();
    m.obj_class = r.get_lpstring();
    m.value = r.get_lpbytes();
    if (!r.ok()) return {Err::decode, "short RIEP message"};
    if (op < 1 || op > 7) return {Err::decode, "bad RIEP op"};
    if (r.remaining() != 0) return {Err::decode, "trailing RIEP bytes"};
    m.op = static_cast<RiepOp>(op);
    return m;
  }
};

}  // namespace rina::rib
