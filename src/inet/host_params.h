// Host cost model constants.
//
// These calibrate the simulated hosts to the testbed of the reproduced
// paper: Pentium III / 650 MHz workstations with 100 Mbps 3Com NICs on
// Linux 2.2, where a UDP send or receive costs tens of microseconds of
// syscall/protocol work plus a per-byte copy-and-checksum term, and every
// accepted frame costs interrupt service time. All protocol-visible
// processing serializes through one CPU per host — that serialization is
// what turns many simultaneous acknowledgments into the "ACK implosion"
// the paper measures.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace rmc::inet {

// Per-datagram cost of the send path (syscall, UDP/IP encapsulation).
inline constexpr sim::Time kSendSyscall = sim::microseconds(30);
// Kernel copy + checksum on send, ns per payload byte (~125 MB/s).
inline constexpr double kSendPerByteNs = 8.0;
// NIC queueing work per transmitted fragment (frame).
inline constexpr sim::Time kSendPerFragment = sim::microseconds(8);

// Per-datagram cost of delivering to the application: recvfrom() plus the
// user-level protocol loop's per-packet work (header parse, state walk,
// gettimeofday — the paper's implementation runs entirely in user space).
inline constexpr sim::Time kRecvSyscall = sim::microseconds(40);
// Kernel copy on receive, ns per payload byte.
inline constexpr double kRecvPerByteNs = 8.0;
// IP and NIC work per received fragment.
inline constexpr sim::Time kRecvPerFragment = sim::microseconds(6);
// Interrupt service per accepted frame; charged even if the datagram is
// later dropped at the socket buffer.
inline constexpr sim::Time kInterruptPerFrame = sim::microseconds(8);

// The socket buffer defaults: the two host settings that benches vary.
struct HostParams {
  // Default SO_RCVBUF: datagrams beyond this are dropped, the paper's
  // dominant loss mechanism on an otherwise error-free wired LAN.
  std::size_t default_rcvbuf_bytes = 64 * 1024;

  // Default SO_SNDBUF: sendto() blocks the (single-threaded) process until
  // the datagram fits in the NIC transmit backlog. At 50 KB packets the
  // buffer holds one datagram, so copy and transmission stop overlapping —
  // the mechanism behind the ACK protocol's large-packet throughput
  // ceiling in the reproduced testbed.
  std::size_t default_sndbuf_bytes = 64 * 1024;
};

// User-space copy of application data into protocol packets, ns per byte
// (~18 MB/s: a cold two-buffer memcpy plus per-byte protocol bookkeeping
// on the 650 MHz testbed machines), charged by the sender when
// ProtocolConfig::copy_user_data is on. Calibrated jointly with the host
// costs above so that at 50 KB packets the copy no longer hides inside the
// SO_SNDBUF drain window — which reproduces the ~68 Mbps large-packet
// ceiling the paper measures for both the ACK and ring protocols. Only the
// simulated backend charges it; on real sockets the copy is real.
inline constexpr double kCopyNsPerByte = 55.0;

// User-space GF(2^8) processing rates for the hybrid-FEC protocols,
// ns per byte folded (one source block into one parity/syndrome row).
// Calibrated to a software slice-by-64 code path on the testbed CPU
// class: a plain XOR fold runs near memory speed, a general-coefficient
// multiply-accumulate folds eight bit planes and runs ~3x slower. The
// protocol shells charge encode as k x m folds per group and decode as
// roughly one fold per held block per erasure round, so the modelled
// cost scales O(k * m * bytes) exactly like the real kernel.
inline constexpr double kFecXorNsPerByte = 1.0;
inline constexpr double kFecMulNsPerByte = 3.0;

// CPU time to fold `bytes` through a code with `m` parity rows: XOR
// parity (m == 1) folds at memory speed, general coefficients pay the
// bit-plane multiply rate. Encode and decode share this model.
inline sim::Time fec_fold_cost(std::size_t m, std::uint64_t bytes) {
  const double rate = m == 1 ? kFecXorNsPerByte : kFecMulNsPerByte;
  return static_cast<sim::Time>(rate * static_cast<double>(bytes));
}

}  // namespace rmc::inet
