// Minimal IPv4/UDP layer: datagrams, MTU fragmentation, reassembly.
//
// The model keeps exactly what the reproduced experiments depend on:
// datagram semantics up to 64 KB, per-fragment header overhead on the
// wire, loss of any fragment losing the whole datagram, and reassembly
// state that times out. Header fields are serialized for real (the frame
// payload is honest bytes), but options, TTL and checksums are omitted —
// corruption is modelled at the link layer instead. The hosts of one
// cluster share finished reassemblies (ReassemblyCache), so a fragmented
// multicast datagram is copied once per cluster, not once per receiver.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/serial.h"
#include "net/frame_arena.h"
#include "net/ipv4.h"
#include "sim/simulator.h"

namespace rmc::inet {

// Largest UDP payload, as with real IPv4: 65535 - 20 (IP) - 8 (UDP).
inline constexpr std::size_t kMaxUdpPayload = 65507;

// Modelled header sizes (bytes).
inline constexpr std::size_t kIpHeaderBytes = 20;
inline constexpr std::size_t kUdpHeaderBytes = 8;
// IP payload per 1500-byte MTU frame.
inline constexpr std::size_t kIpPayloadPerFrame = 1500 - kIpHeaderBytes;  // 1480
// Fragments of the largest UDP datagram.
inline constexpr std::size_t kMaxFragments =
    (kUdpHeaderBytes + kMaxUdpPayload + kIpPayloadPerFrame - 1) / kIpPayloadPerFrame;  // 45
// Incomplete IP reassemblies are discarded after this long.
inline constexpr sim::Time kReassemblyTimeout = sim::milliseconds(200);

// A UDP datagram as sockets receive it. `payload` views the UDP payload
// inside `block`, which keeps those bytes alive: the sender's own block
// for local delivery, the frame payload itself for a single-fragment
// datagram (shared with every other host the frame reached), or the
// reassembled block for a fragmented one (shared with every host of the
// cluster that reassembled the same fragment blocks). Copying a Datagram
// shares the block; no bytes move.
struct Datagram {
  net::Endpoint src;
  net::Endpoint dst;
  net::PayloadRef block;
  BytesView payload;
};

// One IP fragment as carried in an Ethernet frame payload. `data` is a
// slice of the UDP segment (UDP header + application payload) and views
// the bytes it was parsed from.
struct IpFragment {
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  std::uint16_t ident = 0;
  std::uint32_t offset = 0;  // byte offset into the UDP segment
  bool more_fragments = false;
  std::uint32_t total_bytes = 0;  // UDP segment size, repeated in every fragment
  BytesView data;

  // kIpHeaderBytes of header followed by data, in one arena block.
  net::PayloadRef serialize() const;
  static std::optional<IpFragment> parse(BytesView frame_payload);
};

// Fragment `index` of the UDP datagram src -> dst carrying `payload`,
// serialized into its own arena block: the IP header, then the fragment's
// slice of the UDP segment (the UDP header rides at the front of the
// segment, as on a real wire), copied straight out of `payload`.
net::PayloadRef make_fragment(const net::Endpoint& src, const net::Endpoint& dst,
                              BytesView payload, std::uint16_t ident, std::size_t index);

// Count of frames a UDP payload of `payload_bytes` occupies; used by host
// cost accounting and by tests that reason about wire time.
std::size_t fragment_count(std::size_t payload_bytes);

// Splits a datagram into MTU-sized fragments and hands each frame payload
// to `emit` in offset order. `ident` must be unique per (src, dst) for the
// lifetime of any reassembly.
template <typename Emit>
void fragment_datagram(const net::Endpoint& src, const net::Endpoint& dst,
                       BytesView payload, std::uint16_t ident, Emit&& emit) {
  const std::size_t n = fragment_count(payload.size());
  for (std::size_t i = 0; i < n; ++i) emit(make_fragment(src, dst, payload, ident, i));
}

// Finished reassemblies shared by every host of one cluster. A multicast
// datagram reaches each receiving host as the same fragment blocks, so the
// first host to complete it copies the payload once and the others deliver
// that block. An entry is keyed on the identity of its fragment blocks and
// holds a reference to each: no key block can be recycled while the entry
// names it, and a shared block copies on write, so equal keys mean equal
// bytes. A fragment tampered in flight has its own block and misses.
class ReassemblyCache {
 public:
  // Entries kept, oldest overwritten first: a datagram's receivers
  // complete it close together in simulated time.
  static constexpr std::size_t kEntries = 16;

  // The UDP payload of a completed datagram's frame payloads
  // (`fragments`, in offset order, validated against each other): an
  // entry's block when one was built from exactly these blocks, else a
  // fresh copy inserted as a new entry.
  net::PayloadRef assemble(std::span<const net::PayloadRef> fragments,
                           std::size_t payload_bytes);

 private:
  struct Entry {
    std::vector<net::PayloadRef> fragments;  // the key, held
    net::PayloadRef payload;
  };
  std::array<Entry, kEntries> entries_;
  std::size_t next_ = 0;  // slot the next miss overwrites
};

// Reassembles fragments back into datagrams. A pending datagram holds a
// reference to each fragment's frame payload, with a bitmap of the
// fragment indices received; when the last one arrives the UDP payload is
// joined into one block — through `shared`, when given, so the hosts of
// one cluster copy a multicast datagram once between them. A datagram
// that fits one frame skips reassembly and is delivered as a view of the
// frame. Incomplete reassemblies are discarded kReassemblyTimeout after
// their first fragment.
class Reassembler {
 public:
  using DatagramHandler = std::function<void(Datagram, std::size_t n_fragments)>;

  Reassembler(sim::Simulator& simulator, DatagramHandler on_datagram,
              ReassemblyCache* shared = nullptr);

  // Takes one frame payload. Malformed fragments are dropped: truncated
  // headers, offsets off the kIpPayloadPerFrame grid, lengths that do not
  // match their offset and total, and totals that disagree with the
  // datagram already pending under the same (src, dst, ident).
  void accept(const net::PayloadRef& frame_payload);

  std::uint64_t timeouts() const { return timeouts_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  struct Pending {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t ident = 0;
    std::uint32_t total_bytes = 0;  // UDP segment size
    std::array<net::PayloadRef, kMaxFragments> fragments;  // by index, as received
    std::uint64_t received = 0;     // bit i: fragment i arrived
    sim::Time first_seen = 0;
  };

  void arm_sweep();
  void expire_stale();

  sim::Simulator& sim_;
  DatagramHandler on_datagram_;
  ReassemblyCache* shared_;
  // A handful at most (only fragmented datagrams wait here), so a vector
  // searched linearly: no per-datagram node allocation.
  std::vector<Pending> pending_;
  std::uint64_t timeouts_ = 0;
  bool sweep_scheduled_ = false;
};

}  // namespace rmc::inet
