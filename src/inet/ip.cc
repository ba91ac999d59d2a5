#include "inet/ip.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "common/panic.h"

namespace rmc::inet {

namespace {

// Wire layout of the modelled IP header (exactly kIpHeaderBytes):
//   u8 protocol, u8 flags, u16 ident, u32 src, u32 dst, u32 offset, u32 total
constexpr std::uint8_t kProtoUdp = 17;
constexpr std::uint8_t kFlagMoreFragments = 0x01;

void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void store_header(std::uint8_t* p, const net::Ipv4Addr& src, const net::Ipv4Addr& dst,
                  std::uint16_t ident, std::uint32_t offset, bool more_fragments,
                  std::uint32_t total_bytes) {
  p[0] = kProtoUdp;
  p[1] = more_fragments ? kFlagMoreFragments : 0;
  store_u16(p + 2, ident);
  store_u32(p + 4, src.bits());
  store_u32(p + 8, dst.bits());
  store_u32(p + 12, offset);
  store_u32(p + 16, total_bytes);
}

std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

// The UDP payload carried by a fragmented datagram's frame payloads
// (`fragments`, in offset order, already validated against each other),
// copied once into a fresh arena block of `payload_bytes`.
net::PayloadRef join_fragments(std::span<const net::PayloadRef> fragments,
                               std::size_t payload_bytes) {
  net::PayloadRef out = net::PayloadRef::allocate(payload_bytes);
  std::uint8_t* p = out.mutable_data();  // freshly allocated: always unique
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    // Fragment 0 opens with the UDP header, which the payload leaves out.
    const std::size_t skip = kIpHeaderBytes + (i == 0 ? kUdpHeaderBytes : 0);
    const BytesView data = fragments[i].view().subspan(skip);
    std::memcpy(p, data.data(), data.size());
    p += data.size();
  }
  RMC_ENSURE(p == out.data() + payload_bytes, "fragments do not fill the datagram");
  return out;
}

// Fragments of a UDP segment of `segment_bytes`.
std::size_t segment_fragments(std::size_t segment_bytes) {
  return (segment_bytes + kIpPayloadPerFrame - 1) / kIpPayloadPerFrame;
}

}  // namespace

net::PayloadRef IpFragment::serialize() const {
  net::PayloadRef ref = net::PayloadRef::allocate(kIpHeaderBytes + data.size());
  std::uint8_t* p = ref.mutable_data();  // freshly allocated: always unique
  store_header(p, src, dst, ident, offset, more_fragments, total_bytes);
  if (!data.empty()) std::memcpy(p + kIpHeaderBytes, data.data(), data.size());
  return ref;
}

std::optional<IpFragment> IpFragment::parse(BytesView frame_payload) {
  Reader r(frame_payload);
  IpFragment f;
  std::uint8_t proto = r.u8();
  std::uint8_t flags = r.u8();
  f.ident = r.u16();
  f.src = net::Ipv4Addr(r.u32());
  f.dst = net::Ipv4Addr(r.u32());
  f.offset = r.u32();
  f.total_bytes = r.u32();
  if (!r.ok() || proto != kProtoUdp) return std::nullopt;
  f.more_fragments = (flags & kFlagMoreFragments) != 0;
  f.data = r.bytes(r.remaining());
  return f;
}

net::PayloadRef make_fragment(const net::Endpoint& src, const net::Endpoint& dst,
                              BytesView payload, std::uint16_t ident, std::size_t index) {
  RMC_ENSURE(payload.size() <= kMaxUdpPayload, "UDP payload too large");
  const std::size_t total = kUdpHeaderBytes + payload.size();
  const std::size_t offset = index * kIpPayloadPerFrame;
  RMC_ENSURE(offset < total, "fragment index past the datagram");
  const std::size_t chunk = std::min(kIpPayloadPerFrame, total - offset);

  net::PayloadRef ref = net::PayloadRef::allocate(kIpHeaderBytes + chunk);
  std::uint8_t* p = ref.mutable_data();  // freshly allocated: always unique
  store_header(p, src.addr, dst.addr, ident, static_cast<std::uint32_t>(offset),
               offset + chunk < total, static_cast<std::uint32_t>(total));
  p += kIpHeaderBytes;
  std::size_t from = 0;  // payload offset of the bytes after any UDP header
  std::size_t len = chunk;
  if (index == 0) {
    store_u16(p, src.port);
    store_u16(p + 2, dst.port);
    store_u16(p + 4, static_cast<std::uint16_t>(total));
    store_u16(p + 6, 0);  // checksum: corruption is modelled at the link layer
    p += kUdpHeaderBytes;
    len -= kUdpHeaderBytes;
  } else {
    from = offset - kUdpHeaderBytes;
  }
  if (len > 0) std::memcpy(p, payload.data() + from, len);
  return ref;
}

std::size_t fragment_count(std::size_t payload_bytes) {
  return segment_fragments(kUdpHeaderBytes + payload_bytes);
}

net::PayloadRef ReassemblyCache::assemble(std::span<const net::PayloadRef> fragments,
                                          std::size_t payload_bytes) {
  const auto same_block = [](const net::PayloadRef& a, const net::PayloadRef& b) {
    return a.data() == b.data();
  };
  for (std::size_t age = 1; age <= kEntries; ++age) {
    const Entry& e = entries_[(next_ + kEntries - age) % kEntries];
    if (std::equal(fragments.begin(), fragments.end(), e.fragments.begin(),
                   e.fragments.end(), same_block)) {
      return e.payload;
    }
  }
  Entry& e = entries_[next_];
  next_ = (next_ + 1) % kEntries;
  e.fragments.assign(fragments.begin(), fragments.end());
  e.payload = join_fragments(fragments, payload_bytes);
  return e.payload;
}

Reassembler::Reassembler(sim::Simulator& simulator, DatagramHandler on_datagram,
                         ReassemblyCache* shared)
    : sim_(simulator), on_datagram_(std::move(on_datagram)), shared_(shared) {}

void Reassembler::accept(const net::PayloadRef& frame_payload) {
  const std::optional<IpFragment> parsed = IpFragment::parse(frame_payload.view());
  if (!parsed) return;
  const IpFragment& f = *parsed;
  const std::size_t total = f.total_bytes;
  if (total < kUdpHeaderBytes || total > kUdpHeaderBytes + kMaxUdpPayload) return;
  if (f.offset % kIpPayloadPerFrame != 0 || f.offset >= total) return;
  if (f.data.size() != std::min<std::size_t>(kIpPayloadPerFrame, total - f.offset)) return;

  // The newest pending datagrams are the likeliest match.
  auto it = std::find_if(pending_.rbegin(), pending_.rend(), [&](const Pending& p) {
    return p.src == f.src.bits() && p.dst == f.dst.bits() && p.ident == f.ident;
  });
  if (it == pending_.rend()) {
    arm_sweep();
    if (f.data.size() == total) {
      // The whole datagram rides in this frame: deliver a view of it.
      const std::uint8_t* udp = f.data.data();
      if (load_u16(udp + 4) != total) return;
      Datagram d{net::Endpoint{f.src, load_u16(udp)}, net::Endpoint{f.dst, load_u16(udp + 2)},
                 frame_payload, f.data.subspan(kUdpHeaderBytes)};
      if (on_datagram_) on_datagram_(std::move(d), 1);
      return;
    }
    Pending& fresh = pending_.emplace_back();
    fresh.src = f.src.bits();
    fresh.dst = f.dst.bits();
    fresh.ident = f.ident;
    fresh.total_bytes = f.total_bytes;
    fresh.first_seen = sim_.now();
    it = pending_.rbegin();
  }
  Pending& p = *it;
  if (p.total_bytes != f.total_bytes) return;  // inconsistent; ignore

  const std::size_t index = f.offset / kIpPayloadPerFrame;
  const std::uint64_t bit = std::uint64_t{1} << index;
  if ((p.received & bit) != 0) return;  // duplicate
  p.received |= bit;
  p.fragments[index] = frame_payload;

  const std::size_t n = segment_fragments(total);
  if (p.received != (std::uint64_t{1} << n) - 1) return;
  const std::span<const net::PayloadRef> fragments(p.fragments.data(), n);
  const std::uint8_t* udp = fragments[0].data() + kIpHeaderBytes;
  std::optional<Datagram> d;
  if (load_u16(udp + 4) == total) {
    const std::size_t payload_bytes = total - kUdpHeaderBytes;
    d = Datagram{net::Endpoint{net::Ipv4Addr(p.src), load_u16(udp)},
                 net::Endpoint{net::Ipv4Addr(p.dst), load_u16(udp + 2)},
                 shared_ != nullptr ? shared_->assemble(fragments, payload_bytes)
                                    : join_fragments(fragments, payload_bytes),
                 {}};
    d->payload = d->block.view();
  }
  pending_.erase(std::next(it).base());
  if (d && on_datagram_) on_datagram_(std::move(*d), n);
}

void Reassembler::arm_sweep() {
  if (sweep_scheduled_) return;
  sweep_scheduled_ = true;
  sim_.schedule_after(kReassemblyTimeout, [this] { expire_stale(); });
}

void Reassembler::expire_stale() {
  sweep_scheduled_ = false;
  const sim::Time now = sim_.now();
  const auto stale = std::remove_if(pending_.begin(), pending_.end(), [&](const Pending& p) {
    return now - p.first_seen >= kReassemblyTimeout;
  });
  timeouts_ += static_cast<std::uint64_t>(pending_.end() - stale);
  pending_.erase(stale, pending_.end());
  if (!pending_.empty()) arm_sweep();
}

}  // namespace rmc::inet
