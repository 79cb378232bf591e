// Unit tests for the benchmark's own logic: the percentile helper, the
// open-loop lateness accounting and the timing Transport decorator.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "open_loop.hpp"
#include "runtime/inproc.hpp"
#include "stats.hpp"
#include "timing_transport.hpp"

namespace perfbench {
namespace {

TEST(Percentiles, ReportValueWithSampleAndTailCounts) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const auto ps = percentiles(samples, {0.5, 0.9, 0.99, 1.0});
  ASSERT_EQ(ps.size(), 4u);
  EXPECT_EQ(ps[0].value, 50);
  EXPECT_EQ(ps[1].value, 90);
  EXPECT_EQ(ps[2].value, 99);
  EXPECT_EQ(ps[3].value, 100);
  for (const Percentile& p : ps) EXPECT_EQ(p.samples, 100u);
  EXPECT_EQ(ps[0].beyond, 50u);
  EXPECT_EQ(ps[1].beyond, 10u);
  EXPECT_EQ(ps[2].beyond, 1u);
  EXPECT_EQ(ps[3].beyond, 0u);
}

TEST(Percentiles, TiesAndEmptySets) {
  const Percentile tied = percentile({5, 5, 5, 7}, 0.5);
  EXPECT_EQ(tied.value, 5);
  EXPECT_EQ(tied.samples, 4u);
  EXPECT_EQ(tied.beyond, 1u);  // strictly greater than the value
  const Percentile empty = percentile({}, 0.99);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.value, 0);
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(median({3, 1, 2, 4}), 2.5);
}

TEST(OpenLoop, StalledGeneratorShowsInMeasuredLatency) {
  // 1 us period, instant service. The generator stalls for 5 ms right
  // before request 50; every request due during the stall must carry the
  // wait, although each one's own send-to-reply time stays tiny.
  constexpr std::int64_t kPeriod = 1'000;
  constexpr std::int64_t kStall = 5'000'000;
  constexpr std::int64_t kService = 100;
  constexpr std::uint64_t kCount = 200;
  const OpenLoopSchedule schedule{0, kPeriod};
  std::int64_t clock = 0;
  std::vector<std::int64_t> latency(kCount);
  std::vector<std::int64_t> send_to_reply(kCount);
  std::vector<std::int64_t> late(kCount);
  drive_open_loop(
      schedule, kCount,
      [&](std::int64_t due) {
        if (due == schedule.due(50)) clock += kStall;
        clock = std::max(clock, due);
        return clock;
      },
      [&](std::uint64_t i, std::int64_t due, std::int64_t late_ns) {
        late[i] = late_ns;
        const std::int64_t sent = clock;
        clock += kService;  // the reply arrives before the next send
        latency[i] = clock - due;
        send_to_reply[i] = clock - sent;
      });
  EXPECT_EQ(late[49], 0);
  EXPECT_GE(late[50], kStall - kPeriod);
  EXPECT_LE(latency[49], kService);
  // Requests 50.. were all due during the stall: each waited for it.
  for (std::uint64_t i = 50; i < kCount; ++i) {
    EXPECT_GE(latency[i], kStall - static_cast<std::int64_t>(i) * kPeriod);
    EXPECT_EQ(send_to_reply[i], kService);
  }
  std::vector<double> lat(latency.begin(), latency.end());
  EXPECT_GE(percentile(lat, 0.5).value, 4'000'000);
}

/// A fake endpoint that fires peer-down notifications on demand.
class FakeTransport final : public toka::runtime::Transport {
 public:
  toka::NodeId self() const override { return 7; }
  void send(toka::NodeId to, std::vector<std::byte> payload) override {
    sent_to = to;
    sent = std::move(payload);
  }
  void set_handler(Handler handler) override { handler_ = std::move(handler); }
  void set_peer_down_handler(PeerDownHandler handler) override {
    down_ = std::move(handler);
  }
  void fire_peer_down(toka::NodeId peer) {
    if (down_) down_(peer);
  }
  bool has_handler() const { return static_cast<bool>(handler_); }
  toka::NodeId sent_to = toka::kNoNode;
  std::vector<std::byte> sent;

 private:
  Handler handler_;
  PeerDownHandler down_;
};

std::vector<std::byte> bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(TimingTransport, ForwardsFramesAndDetachOverInProc) {
  toka::runtime::InProcNetwork net(2);
  TimingTransport timed(net.endpoint(1), 1024);
  std::atomic<int> frames{0};
  std::vector<std::byte> last;
  toka::NodeId last_from = toka::kNoNode;
  timed.set_handler([&](toka::NodeId from, std::vector<std::byte> payload) {
    last_from = from;
    last = std::move(payload);
    frames.fetch_add(1);
  });
  net.start();
  EXPECT_EQ(timed.self(), 1u);

  // Timing off: frames pass unchanged and nothing is recorded.
  for (int i = 0; i < 10; ++i) net.endpoint(0).send(1, bytes({1, 2, i}));
  net.drain();
  EXPECT_EQ(frames.load(), 10);
  EXPECT_EQ(last_from, 0u);
  EXPECT_EQ(last, bytes({1, 2, 9}));
  EXPECT_EQ(timed.handler_ns().count(), 0u);

  // Timing on: every frame still arrives, and every one is timed.
  timed.set_timing(true);
  for (int i = 0; i < 10; ++i) net.endpoint(0).send(1, bytes({3, i}));
  net.drain();
  EXPECT_EQ(frames.load(), 20);
  EXPECT_EQ(last, bytes({3, 9}));
  EXPECT_EQ(timed.handler_ns().count(), 10u);

  // Sends through the decorator reach the peer unchanged, and are timed.
  std::atomic<int> echoed{0};
  net.endpoint(0).set_handler([&](toka::NodeId from, std::vector<std::byte> p) {
    EXPECT_EQ(from, 1u);
    EXPECT_EQ(p, bytes({9, 8, 7}));
    echoed.fetch_add(1);
  });
  timed.send(0, bytes({9, 8, 7}));
  net.drain();
  EXPECT_EQ(echoed.load(), 1);
  EXPECT_EQ(timed.send_ns().count(), 1u);

  // Detach: the old handler never runs again.
  timed.set_handler({});
  net.endpoint(0).send(1, bytes({4}));
  net.drain();
  EXPECT_EQ(frames.load(), 20);
  net.endpoint(0).set_handler({});
  net.stop();
}

TEST(TimingTransport, ForwardsPeerDownAndDetachToTheInnerEndpoint) {
  FakeTransport inner;
  TimingTransport timed(inner, 16);
  timed.set_timing(true);
  std::vector<toka::NodeId> down;
  timed.set_peer_down_handler([&](toka::NodeId peer) { down.push_back(peer); });
  inner.fire_peer_down(3);
  inner.fire_peer_down(5);
  EXPECT_EQ(down, (std::vector<toka::NodeId>{3, 5}));
  timed.set_peer_down_handler({});
  inner.fire_peer_down(6);
  EXPECT_EQ(down.size(), 2u);

  timed.set_handler([](toka::NodeId, std::vector<std::byte>) {});
  EXPECT_TRUE(inner.has_handler());
  timed.set_handler({});
  EXPECT_FALSE(inner.has_handler());

  timed.send(4, bytes({1, 2}));
  EXPECT_EQ(inner.sent_to, 4u);
  EXPECT_EQ(inner.sent, bytes({1, 2}));
  EXPECT_EQ(timed.self(), 7u);
}

}  // namespace
}  // namespace perfbench
