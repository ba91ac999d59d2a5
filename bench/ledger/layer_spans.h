// Timing decorators for the traced pass of the ledger benchmark.
//
// Protocol code (MulticastSender / MulticastReceiver) runs only inside
// calls that cross the two backend interfaces: timer callbacks and
// run_cost continuations the rt::Runtime invokes, datagram handlers the
// rt::UdpSocket invokes, and the benchmark's own send() call. Wrapping both
// interfaces in forwarding decorators therefore splits a transfer's wall
// time from outside src/: time inside those spans is the rmcast layer,
// time inside the socket send calls it makes is the runtime's transmit
// path, and the rest is what lies below the runtime interface (event core
// + net + inet on the simulator, event loop + kernel on posix sockets).
//
// The decorators only forward, so a traced transfer executes exactly the
// events of an untraced one; rmc_ledger checks that on every sim transfer.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>

#include "runtime/runtime.h"

namespace rmc::ledger {

enum Side { kSender = 0, kReceiver = 1 };
enum Entry { kRx = 0, kCallback = 1 };  // datagram handler, timer/run_cost

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Accumulated span times of one traced run. Single-threaded, like both
// runtimes.
struct LayerClock {
  // Protocol self time (span time minus the send calls made inside it)
  // and span count, by side and entry kind.
  std::uint64_t self_ns[2][2] = {};
  std::uint64_t spans[2][2] = {};
  std::uint64_t tx_ns = 0;  // inside UdpSocket::send_to / send_ref
  std::uint64_t tx_calls = 0;
  int depth = 0;  // nested entries (posix run_cost runs inline) count once
};

// One protocol entry. Only the outermost span of a nest is timed.
class Span {
 public:
  Span(LayerClock& clock, Side side, Entry entry)
      : clock_(clock), side_(side), entry_(entry), outer_(clock.depth++ == 0) {
    if (outer_) {
      tx_at_entry_ = clock_.tx_ns;
      start_ = now_ns();
    }
  }
  ~Span() {
    --clock_.depth;
    if (!outer_) return;
    const std::uint64_t elapsed = now_ns() - start_;
    clock_.self_ns[side_][entry_] += elapsed - (clock_.tx_ns - tx_at_entry_);
    ++clock_.spans[side_][entry_];
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerClock& clock_;
  Side side_;
  Entry entry_;
  bool outer_;
  std::uint64_t tx_at_entry_ = 0;
  std::uint64_t start_ = 0;
};

class TimedRuntime final : public rt::Runtime {
 public:
  TimedRuntime(rt::Runtime& inner, LayerClock& clock, Side side)
      : inner_(inner), clock_(clock), side_(side) {}
  TimedRuntime(const TimedRuntime&) = delete;
  TimedRuntime& operator=(const TimedRuntime&) = delete;

  sim::Time now() override { return inner_.now(); }
  rt::TimerId schedule_after(sim::Time delay, std::function<void()> fn) override {
    return inner_.schedule_after(delay, wrap(std::move(fn)));
  }
  void cancel(rt::TimerId id) override { inner_.cancel(id); }
  void run_cost(sim::Time cost, std::function<void()> fn) override {
    inner_.run_cost(cost, wrap(std::move(fn)));
  }

 private:
  std::function<void()> wrap(std::function<void()> fn) {
    return [this, fn = std::move(fn)] {
      Span span(clock_, side_, kCallback);
      fn();
    };
  }

  rt::Runtime& inner_;
  LayerClock& clock_;
  Side side_;
};

class TimedSocket final : public rt::UdpSocket {
 public:
  TimedSocket(rt::UdpSocket& inner, LayerClock& clock, Side side)
      : inner_(inner), clock_(clock), side_(side) {}
  TimedSocket(const TimedSocket&) = delete;
  TimedSocket& operator=(const TimedSocket&) = delete;

  void send_to(const net::Endpoint& dst, BytesView payload) override {
    const std::uint64_t start = now_ns();
    inner_.send_to(dst, payload);
    account_tx(start);
  }
  void send_ref(const net::Endpoint& dst, net::PayloadRef payload) override {
    const std::uint64_t start = now_ns();
    inner_.send_ref(dst, std::move(payload));
    account_tx(start);
  }
  void set_handler(Handler handler) override {
    inner_.set_handler([this, handler = std::move(handler)](const net::Endpoint& src,
                                                            BytesView payload) {
      Span span(clock_, side_, kRx);
      handler(src, payload);
    });
  }
  net::Endpoint local_endpoint() const override { return inner_.local_endpoint(); }

 private:
  void account_tx(std::uint64_t start) {
    clock_.tx_ns += now_ns() - start;
    ++clock_.tx_calls;
  }

  rt::UdpSocket& inner_;
  LayerClock& clock_;
  Side side_;
};

}  // namespace rmc::ledger
