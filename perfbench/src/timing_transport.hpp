// Per-layer timing from outside the library: a runtime::Transport decorator
// that times every send and every receive-handler invocation on the
// endpoint it wraps.
//
// The decorator sits between a component (service::Server, service::Client,
// cluster::ClusterServer, the cluster client's per-node clients) and its
// real endpoint. Frames, handler installs and detaches, and peer-down
// notifications pass through unchanged; with timing off it adds one virtual
// call and one relaxed load per frame, so the untraced runs use the same
// stack shape as the traced ones.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "host.hpp"
#include "samples.hpp"
#include "runtime/transport.hpp"

namespace perfbench {

class TimingTransport final : public toka::runtime::Transport {
 public:
  /// `inner` must outlive the decorator; the decorator must outlive every
  /// component that installs a handler through it.
  TimingTransport(toka::runtime::Transport& inner, std::size_t capacity)
      : inner_(&inner), send_ns_(capacity), handler_ns_(capacity) {}

  TimingTransport(const TimingTransport&) = delete;
  TimingTransport& operator=(const TimingTransport&) = delete;

  toka::NodeId self() const override { return inner_->self(); }

  void send(toka::NodeId to, std::vector<std::byte> payload) override {
    if (!timing()) {
      inner_->send(to, std::move(payload));
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_->send(to, std::move(payload));
    send_ns_.record(now_ns() - t0);
  }

  void set_handler(Handler handler) override {
    if (!handler) {
      inner_->set_handler({});
      return;
    }
    inner_->set_handler(
        [this, handler = std::move(handler)](toka::NodeId from,
                                             std::vector<std::byte> payload) {
          if (!timing()) {
            handler(from, std::move(payload));
            return;
          }
          const std::int64_t t0 = now_ns();
          handler(from, std::move(payload));
          handler_ns_.record(now_ns() - t0);
        });
  }

  void set_peer_down_handler(PeerDownHandler handler) override {
    inner_->set_peer_down_handler(std::move(handler));
  }

  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  bool timing() const { return timing_.load(std::memory_order_relaxed); }

  /// Time inside the wrapped endpoint's send, ns.
  SampleBuffer& send_ns() { return send_ns_; }
  /// Time inside the installed receive handler, ns.
  SampleBuffer& handler_ns() { return handler_ns_; }

 private:
  toka::runtime::Transport* inner_;
  std::atomic<bool> timing_{false};
  SampleBuffer send_ns_;
  SampleBuffer handler_ns_;
};

}  // namespace perfbench
