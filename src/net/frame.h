// Ethernet frames and on-wire size accounting.
//
// The payload is an opaque byte buffer (the simulated IP layer serializes
// into it). Size accounting matters more than field fidelity here: frame
// times on the 100 Mbps links are what the reproduced experiments measure,
// so header, CRC, padding to the 64-byte minimum, preamble and inter-frame
// gap are all charged explicitly.
#pragma once

#include <cstdint>
#include <utility>

#include "common/serial.h"
#include "net/frame_arena.h"
#include "net/mac.h"

namespace rmc::net {

// Ethernet II constants, in bytes.
inline constexpr std::size_t kEthHeaderBytes = 14;   // dst + src + ethertype
inline constexpr std::size_t kEthCrcBytes = 4;
inline constexpr std::size_t kEthMinFrameBytes = 64;     // header + payload + CRC
inline constexpr std::size_t kEthMaxPayloadBytes = 1500;  // MTU
inline constexpr std::size_t kEthPreambleAndIfgBytes = 20;  // 8 preamble/SFD + 12 IFG

struct Frame {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ethertype = 0x0800;  // IPv4
  // Arena-pooled and refcounted so switch flooding shares one block per
  // payload instead of copying per egress port; frames are immutable once
  // transmitted (fault hooks that tamper go through PayloadRef's
  // copy-on-write).
  PayloadRef payload;
  // Opaque packet tag for causal tracing (common/trace.h): stamped by the
  // sending host when a tracer is attached, carried unchanged across
  // switch hops and fragment copies so a drop anywhere on the path can
  // name the protocol packet it killed. 0 = untraced.
  std::uint32_t trace_tag = 0;

  std::size_t payload_size() const { return payload.size(); }

  // Header + payload + CRC, padded to the Ethernet minimum.
  std::size_t frame_bytes() const;

  // Bytes of link occupancy including preamble/SFD and inter-frame gap;
  // this is what serialization time is computed from.
  std::size_t wire_bytes() const { return frame_bytes() + kEthPreambleAndIfgBytes; }

  bool is_group_addressed() const { return dst.is_group(); }
};

inline Frame make_frame(MacAddr dst, MacAddr src, PayloadRef payload) {
  return Frame{dst, src, 0x0800, std::move(payload)};
}

// Convenience for call sites that already materialized a Buffer (tests,
// mostly): copies the bytes into an arena block. The zero-copy path is to
// serialize straight into a PayloadRef (see inet::make_fragment).
inline Frame make_frame(MacAddr dst, MacAddr src, const Buffer& payload) {
  return Frame{dst, src, 0x0800,
               PayloadRef::copy_of(BytesView(payload.data(), payload.size()))};
}

}  // namespace rmc::net
