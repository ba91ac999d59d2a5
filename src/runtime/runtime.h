// Execution-backend abstraction for the reliable multicast protocols.
//
// The paper's protocols are user processes doing three things: read the
// clock, arm retransmission timers, and move datagrams through UDP
// sockets. This interface captures exactly that, so one protocol
// implementation runs unchanged on the discrete-event simulator (where the
// reproduction's measurements happen) and on real POSIX sockets (where the
// library is actually useful). Both backends are single-threaded and
// callback-driven; handlers never race.
#pragma once

#include <cstdint>
#include <functional>

#include "common/serial.h"
#include "net/frame_arena.h"
#include "net/ipv4.h"
#include "sim/time.h"

namespace rmc::rt {

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimerId = 0;

class Runtime {
 public:
  virtual ~Runtime() = default;

  // Nanoseconds since an arbitrary run-local epoch.
  virtual sim::Time now() = 0;

  // One-shot timer. The returned id is valid until the callback fires or
  // cancel() is called; cancelling a fired timer is a harmless no-op.
  virtual TimerId schedule_after(sim::Time delay, std::function<void()> fn) = 0;
  virtual void cancel(TimerId id) = 0;

  // Cancels `id` if it is armed and resets it to kInvalidTimerId; true
  // when there was a timer to cancel.
  bool disarm(TimerId& id) {
    if (id == kInvalidTimerId) return false;
    cancel(id);
    id = kInvalidTimerId;
    return true;
  }

  // Accounts for `cost` nanoseconds of CPU work, then runs `fn`. The
  // simulated backend occupies the host CPU (serializing with all other
  // work on that host); the real backend runs `fn` immediately because the
  // work it models (e.g. the user-space copy) physically happened.
  virtual void run_cost(sim::Time cost, std::function<void()> fn) = 0;
};

class UdpSocket {
 public:
  using Handler = std::function<void(const net::Endpoint& src, BytesView payload)>;

  virtual ~UdpSocket() = default;

  virtual void send_to(const net::Endpoint& dst, BytesView payload) = 0;
  // Zero-copy variant: the caller hands over a refcounted arena payload
  // (see net::ArenaWriter) instead of bytes to copy. The simulated
  // backend cuts its IP fragments straight out of the block, and
  // PosixUdpSocket queues the block itself on its TX ring so the bytes
  // the protocol serialized are the bytes the kernel reads.
  virtual void send_ref(const net::Endpoint& dst, net::PayloadRef payload) {
    send_to(dst, payload.view());
  }
  virtual void set_handler(Handler handler) = 0;
  virtual net::Endpoint local_endpoint() const = 0;
};

}  // namespace rmc::rt
