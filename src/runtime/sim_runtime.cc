#include "runtime/sim_runtime.h"

namespace rmc::rt {

namespace {

class SimUdpSocket final : public UdpSocket {
 public:
  explicit SimUdpSocket(inet::Socket* socket) : socket_(socket) {}

  void send_to(const net::Endpoint& dst, BytesView payload) override {
    socket_->send_to(dst, payload);
  }
  void send_ref(const net::Endpoint& dst, net::PayloadRef payload) override {
    socket_->send_ref(dst, std::move(payload));
  }

  void set_handler(Handler handler) override {
    socket_->set_handler([handler = std::move(handler)](const inet::Datagram& d) {
      handler(d.src, d.payload);
    });
  }

  net::Endpoint local_endpoint() const override { return socket_->local_endpoint(); }

 private:
  inet::Socket* socket_;
};

}  // namespace

std::unique_ptr<UdpSocket> SimRuntime::wrap(inet::Socket* socket) {
  return std::make_unique<SimUdpSocket>(socket);
}

}  // namespace rmc::rt
