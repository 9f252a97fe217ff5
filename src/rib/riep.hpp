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
// Wire layout: u8 op | u8 class | u32 invoke_id | lp32 value — a 10-byte
// header. The class names the object: no handler needs more, so there is
// no name string. The decoder rejects an op or class byte it does not
// know, a short header and trailing bytes.
#pragma once

#include <cstdint>

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

/// The management objects of a DIF, one handler each.
enum class ObjClass : std::uint8_t {
  hello = 1,
  keepalive,
  join_req,
  join_challenge,
  join_resp,
  join_accept,
  join_reject,
  bye,
  sync,            // replicated state: LSDB and directory records
  dir_upd,         // a targeted write to a directory authority
  dir_read,        // a query up the resolver chain
  dir_read_reply,
  dir_inval,       // cache invalidation
  flow_req,
  flow_resp,
  flow_release,
  flow_release_ack,
};
constexpr ObjClass kLastObjClass = ObjClass::flow_release_ack;

struct RiepMessage {
  RiepOp op = RiepOp::read;
  ObjClass obj_class = ObjClass::hello;
  std::uint32_t invoke_id = 0;
  Bytes value{};

  [[nodiscard]] Bytes encode() const {
    BufWriter w(10 + value.size());
    w.put_u8(static_cast<std::uint8_t>(op));
    w.put_u8(static_cast<std::uint8_t>(obj_class));
    w.put_u32(invoke_id);
    w.put_lpbytes(BytesView{value});
    // A latched writer (field too large for its length prefix) makes
    // take() yield an empty frame, which every decoder rejects cleanly.
    return std::move(w).take();
  }

  static Result<RiepMessage> decode(BytesView wire) {
    BufReader r(wire);
    RiepMessage m;
    std::uint8_t op = r.get_u8();
    std::uint8_t cls = r.get_u8();
    m.invoke_id = r.get_u32();
    m.value = r.get_lpbytes();
    if (!r.ok()) return {Err::decode, "short RIEP message"};
    if (op < 1 || op > 7) return {Err::decode, "bad RIEP op"};
    if (cls < 1 || cls > static_cast<std::uint8_t>(kLastObjClass))
      return {Err::decode, "bad RIEP object class"};
    if (r.remaining() != 0) return {Err::decode, "trailing RIEP bytes"};
    m.op = static_cast<RiepOp>(op);
    m.obj_class = static_cast<ObjClass>(cls);
    return m;
  }
};

}  // namespace rina::rib
