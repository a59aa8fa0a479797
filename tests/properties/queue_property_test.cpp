// Property suite for the traffic plane's finite queues and streams,
// randomized over seeds:
//   - a LinkQueue's occupancy never exceeds its byte limit;
//   - an entry is ECN-marked iff post-enqueue occupancy crossed the
//     threshold (and never when the threshold is disabled);
//   - queue conservation: enqueued == dequeued + still-queued, and every
//     rejected offer is a counted tail drop;
//   - stream conservation: sent == delivered + queue_drops + fault_drops
//     for any capacity configuration.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "netsim/link_queue.h"
#include "netsim/network.h"
#include "transport/stream.h"
#include "util/rng.h"

namespace vpna {
namespace {

using netsim::LinkCapacity;
using netsim::LinkQueue;

TEST(QueueProperty, InvariantsHoldUnderRandomizedWorkloads) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed);
    LinkCapacity cap;
    cap.bandwidth_bps = rng.uniform(1e6, 1e9);
    cap.queue_limit_bytes =
        static_cast<std::uint32_t>(rng.uniform_int(2000, 64000));
    // Sometimes past 1.0, which must disable marking entirely.
    cap.ecn_threshold = rng.uniform(0.2, 1.2);
    LinkQueue q(cap);

    // Shadow model: expected (token, bytes, marked) of every live entry.
    struct Shadow {
      std::uint64_t token;
      std::uint32_t bytes;
      bool marked;
    };
    std::deque<Shadow> model;
    std::uint64_t accepted = 0, rejected = 0, popped = 0, next_token = 1;

    for (int op = 0; op < 2000; ++op) {
      const bool do_offer = q.empty() || rng.chance(0.6);
      if (do_offer) {
        const auto bytes =
            static_cast<std::uint32_t>(rng.uniform_int(100, 3000));
        const auto before = q.occupancy_bytes();
        const bool ok = q.offer(next_token, bytes, util::SimTime(op));
        if (before + bytes > cap.queue_limit_bytes) {
          ASSERT_FALSE(ok) << "seed " << seed << " op " << op;
          ++rejected;
        } else {
          ASSERT_TRUE(ok) << "seed " << seed << " op " << op;
          const auto after = before + bytes;
          const bool expect_mark =
              cap.ecn_threshold < 1.0 &&
              static_cast<double>(after) >
                  cap.ecn_threshold *
                      static_cast<double>(cap.queue_limit_bytes);
          model.push_back({next_token, bytes, expect_mark});
          ++accepted;
        }
        ++next_token;
      } else {
        const auto entry = q.pop();
        ASSERT_FALSE(model.empty());
        EXPECT_EQ(entry.token, model.front().token);
        EXPECT_EQ(entry.bytes, model.front().bytes);
        EXPECT_EQ(entry.ecn_marked, model.front().marked)
            << "seed " << seed << " op " << op;
        model.pop_front();
        ++popped;
      }
      // Occupancy never exceeds the configured limit...
      ASSERT_LE(q.occupancy_bytes(), cap.queue_limit_bytes);
      // ...and always equals the bytes of the live entries.
      std::uint64_t model_bytes = 0;
      for (const auto& e : model) model_bytes += e.bytes;
      ASSERT_EQ(q.occupancy_bytes(), model_bytes);
      // Conservation at every step.
      ASSERT_EQ(q.stats().enqueued, accepted);
      ASSERT_EQ(q.stats().tail_drops, rejected);
      ASSERT_EQ(q.stats().dequeued, popped);
      ASSERT_EQ(q.stats().enqueued, q.stats().dequeued + q.len());
    }
    // Over-threshold disabled marking never marks.
    if (cap.ecn_threshold >= 1.0) {
      EXPECT_EQ(q.stats().ecn_marks, 0u);
    }
  }
}

TEST(QueueProperty, StreamConservationUnderRandomizedCapacities) {
  using netsim::IpAddr;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    util::SimClock clock;
    netsim::Network net(clock, util::Rng(seed), /*jitter_stddev_ms=*/0.0);
    netsim::Host client("client");
    netsim::Host server("server");
    const auto r0 = net.add_router("r0");
    const auto r1 = net.add_router("r1");
    net.add_link(r0, r1, rng.uniform(1.0, 30.0));
    client.add_interface("eth0", IpAddr::v4(71, 80, 0, 10));
    client.routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"),
                                      "eth0", std::nullopt, 0});
    net.attach_host(client, r0, 1.0);
    server.add_interface("eth0", IpAddr::v4(45, 0, 0, 10));
    server.routes().add(netsim::Route{*netsim::Cidr::parse("0.0.0.0/0"),
                                      "eth0", std::nullopt, 0});
    net.attach_host(server, r1, 1.0);

    LinkCapacity cap;
    cap.bandwidth_bps = rng.uniform(2e6, 100e6);
    cap.queue_limit_bytes =
        static_cast<std::uint32_t>(rng.uniform_int(4000, 200000));
    cap.ecn_threshold = rng.uniform(0.3, 1.1);
    net.set_link_capacity(r0, r1, cap);

    transport::StreamSpec spec;
    spec.src = &client;
    spec.dst = IpAddr::v4(45, 0, 0, 10);
    spec.config.duration_s = 0.4;
    const auto stats =
        transport::run_streams(net, {spec, spec});  // two competing flows
    for (const auto& s : stats) {
      ASSERT_TRUE(s.ran);
      EXPECT_GT(s.sent_packets, 0u);
      // The conservation equation, exact, for every random configuration.
      EXPECT_EQ(s.sent_packets,
                s.delivered_packets + s.queue_drops + s.fault_drops)
          << "seed " << seed;
      EXPECT_EQ(s.fault_drops, 0u);  // no injector in this property
      // ECN echoes only ever ride delivered packets.
      EXPECT_LE(s.ecn_marks, s.delivered_packets);
      // RTT samples can never beat the physical path.
      if (s.delivered_packets > 0) {
        EXPECT_GE(s.min_rtt_ms, s.base_rtt_ms - 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace vpna
