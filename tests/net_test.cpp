// Network-substrate tests: queue behaviour (drops, ECN), link timing
// (serialization + propagation), chained keyed deliveries and lazily settled
// serialization ends, switch route tables and forwarding policies, and
// pathlet feedback stamping.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mtp/endpoint.hpp"
#include "net/forwarding.hpp"
#include "net/network.hpp"
#include "telemetry/trace.hpp"

namespace mtp::net {
namespace {

using namespace mtp::sim::literals;
using sim::Bandwidth;
using sim::SimTime;

Packet make_pkt(NodeId src, NodeId dst, std::uint32_t bytes, Ecn ecn = Ecn::kNotEct) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = bytes;
  p.ecn = ecn;
  return p;
}

/// Test sink node recording arrivals with timestamps.
class SinkNode : public Node {
 public:
  using Node::Node;
  void receive(Packet&& pkt, PortIndex) override {
    arrival_times.push_back(sim_.now());
    pkts.push_back(std::move(pkt));
  }
  void send(Packet&&) override {}  // a sink originates nothing
  std::vector<Packet> pkts;
  std::vector<SimTime> arrival_times;
};

// ----------------------------------------------------------------- queues
//
// Each case runs twice: on a standalone queue (private pool) and bound to a
// pool that other packets already occupy (the shared-pool test below).

void fifo_order(PacketPool* shared) {
  DropTailQueue q({.capacity_pkts = 4});
  if (shared != nullptr) q.bind_pool(*shared);
  for (std::uint32_t i = 1; i <= 3; ++i) q.enqueue(make_pkt(0, 1, i * 100));
  EXPECT_EQ(q.len_pkts(), 3u);
  EXPECT_EQ(q.dequeue()->payload_bytes, 100u);
  EXPECT_EQ(q.dequeue()->payload_bytes, 200u);
  EXPECT_EQ(q.dequeue()->payload_bytes, 300u);
  EXPECT_FALSE(q.dequeue().has_value());
}

void drops_when_full(PacketPool* shared) {
  DropTailQueue q({.capacity_pkts = 2});
  if (shared != nullptr) q.bind_pool(*shared);
  EXPECT_TRUE(q.enqueue(make_pkt(0, 1, 100)));
  EXPECT_TRUE(q.enqueue(make_pkt(0, 1, 100)));
  EXPECT_FALSE(q.enqueue(make_pkt(0, 1, 100)));
  EXPECT_EQ(q.stats().dropped(), 1u);
  EXPECT_EQ(q.stats().bytes_dropped, 100u);
}

void tracks_byte_occupancy(PacketPool* shared) {
  DropTailQueue q({.capacity_pkts = 10});
  if (shared != nullptr) q.bind_pool(*shared);
  q.enqueue(make_pkt(0, 1, 500));
  q.enqueue(make_pkt(0, 1, 300));
  EXPECT_EQ(q.len_bytes(), 800);
  q.dequeue();
  EXPECT_EQ(q.len_bytes(), 300);
}

void ecn_marks_above_threshold(PacketPool* shared) {
  DropTailQueue q({.capacity_pkts = 10, .ecn_threshold_pkts = 2});
  if (shared != nullptr) q.bind_pool(*shared);
  q.enqueue(make_pkt(0, 1, 100, Ecn::kEct));
  q.enqueue(make_pkt(0, 1, 100, Ecn::kEct));
  q.enqueue(make_pkt(0, 1, 100, Ecn::kEct));  // queue len 2 at enqueue: marked
  EXPECT_EQ(q.dequeue()->ecn, Ecn::kEct);
  EXPECT_EQ(q.dequeue()->ecn, Ecn::kEct);
  EXPECT_EQ(q.dequeue()->ecn, Ecn::kCe);
  EXPECT_EQ(q.stats().ecn_marked, 1u);
}

void never_marks_non_ect(PacketPool* shared) {
  DropTailQueue q({.capacity_pkts = 10, .ecn_threshold_pkts = 1});
  if (shared != nullptr) q.bind_pool(*shared);
  q.enqueue(make_pkt(0, 1, 100, Ecn::kNotEct));
  q.enqueue(make_pkt(0, 1, 100, Ecn::kNotEct));
  EXPECT_EQ(q.dequeue()->ecn, Ecn::kNotEct);
  EXPECT_EQ(q.dequeue()->ecn, Ecn::kNotEct);
}

TEST(DropTailQueue, FifoOrder) { fifo_order(nullptr); }
TEST(DropTailQueue, DropsWhenFull) { drops_when_full(nullptr); }
TEST(DropTailQueue, TracksByteOccupancy) { tracks_byte_occupancy(nullptr); }
TEST(DropTailQueue, EcnMarksAboveThreshold) { ecn_marks_above_threshold(nullptr); }
TEST(DropTailQueue, NeverMarksNonEctPackets) { never_marks_non_ect(nullptr); }

TEST(DropTailQueue, CasesPassBoundToASharedPool) {
  PacketPool pool;
  DropTailQueue resident;
  resident.bind_pool(pool);
  for (std::uint32_t i = 1; i <= 3; ++i) resident.enqueue(make_pkt(0, 1, 7000 + i));
  for (auto* run : {fifo_order, drops_when_full, tracks_byte_occupancy,
                    ecn_marks_above_threshold, never_marks_non_ect}) {
    run(&pool);
    // A destroyed queue returns the slots it still held.
    EXPECT_EQ(pool.live(), 3u);
  }
  for (std::uint32_t i = 1; i <= 3; ++i) EXPECT_EQ(resident.dequeue()->payload_bytes, 7000 + i);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(DropTailQueue, BindingANonEmptyQueueThrows) {
  DropTailQueue q;
  q.enqueue(make_pkt(0, 1, 100));
  PacketPool pool;
  EXPECT_THROW(q.bind_pool(pool), std::logic_error);
}

// ------------------------------------------------------------------ links

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(10), 1_us, std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  link.send(make_pkt(0, 1, 1000));  // 1000B at 10G = 800ns tx
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], 800_ns + 1_us);
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(10), SimTime::zero(),
            std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  for (int i = 0; i < 3; ++i) link.send(make_pkt(0, 1, 1000));
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 3u);
  EXPECT_EQ(sink.arrival_times[0], 800_ns);
  EXPECT_EQ(sink.arrival_times[1], 1600_ns);
  EXPECT_EQ(sink.arrival_times[2], 2400_ns);
}

TEST(Link, PipelinesSerializationWithPropagation) {
  // Propagation >> serialization: deliveries are spaced by the serialization
  // time, not serialized+propagated (the pipe holds many packets).
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(100), 10_us, std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  for (int i = 0; i < 2; ++i) link.send(make_pkt(0, 1, 1250));  // 100ns each
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 2u);
  EXPECT_EQ(sink.arrival_times[1] - sink.arrival_times[0], 100_ns);
}

TEST(Link, ChainsDeliveriesWithOneHeapEntryPerLink) {
  // A long pipe full of back-to-back packets: every packet still arrives at
  // its own tx end + propagation, in FIFO order, but the link keeps at most
  // one delivery in the heap (plus the running serialization) however many
  // packets are on the wire.
  constexpr int kPackets = 64;
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(100), 50_us, std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  for (int i = 0; i < kPackets; ++i) {
    Packet p = make_pkt(0, 1, 1250);  // 100ns each at 100G
    p.flow_hash = static_cast<std::uint64_t>(i);  // identifies the packet
    link.send(std::move(p));
  }
  std::size_t max_pending = 0;
  for (SimTime t = 50_ns; t < 60_us; t += 50_ns) {
    sim.run(t);
    max_pending = std::max(max_pending, sim.pending_events());
  }
  sim.run();
  EXPECT_LE(max_pending, 2u);
  ASSERT_EQ(sink.pkts.size(), static_cast<std::size_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    EXPECT_EQ(sink.pkts[i].flow_hash, static_cast<std::uint64_t>(i)) << "packet " << i;
    EXPECT_EQ(sink.arrival_times[i], SimTime::nanoseconds(100 * (i + 1)) + 50_us)
        << "packet " << i;
  }
}

TEST(Link, EqualTimeDeliveriesRunInLinkUidOrder) {
  // Link A carries two packets, so its second delivery at 1200ns is armed
  // by the first one's (a chained delivery); link B's single packet reaches
  // the same sink at the same nanosecond. Whichever link has the lower uid
  // delivers first, whichever link's send() ran first.
  for (const bool a_low_uid : {true, false}) {
    for (const bool b_sends_first : {true, false}) {
      sim::Simulator sim;
      SinkNode sink(sim, 9, "sink");
      Link a(sim, "a", Bandwidth::gbps(100), 1_us, std::make_unique<DropTailQueue>());
      Link b(sim, "b", Bandwidth::gbps(100), 1100_ns, std::make_unique<DropTailQueue>());
      a.set_uid(a_low_uid ? 1 : 2);
      b.set_uid(a_low_uid ? 2 : 1);
      a.connect_to(sink, 0);
      b.connect_to(sink, 1);
      if (b_sends_first) b.send(make_pkt(20, 9, 1250));
      a.send(make_pkt(10, 9, 1250));  // arrives at 1100ns
      a.send(make_pkt(10, 9, 1250));  // arrives at 1200ns
      if (!b_sends_first) b.send(make_pkt(20, 9, 1250));  // arrives at 1200ns
      sim.run();
      ASSERT_EQ(sink.pkts.size(), 3u);
      EXPECT_EQ(sink.arrival_times[1], 1200_ns);
      EXPECT_EQ(sink.arrival_times[2], 1200_ns);
      const NodeId low_src = a_low_uid ? 10 : 20;
      EXPECT_EQ(sink.pkts[1].src, low_src)
          << "a_low_uid=" << a_low_uid << " b_sends_first=" << b_sends_first;
    }
  }
}

// Two links on one pool, fed interleaved sends (one overflowing its queue),
// deliver exactly what they deliver on private pools: the same packets in the
// same order at the same times. At every slice boundary the pool holds
// exactly the packets the two links hold.
TEST(Link, TwoLinksSharingAPoolDoNotCrossTalk) {
  using Arrivals = std::vector<std::pair<std::uint64_t, SimTime>>;
  auto run = [](bool shared) {
    sim::Simulator sim;
    PacketPool pool;
    PacketPool* bind = shared ? &pool : nullptr;
    SinkNode sink_a(sim, 1, "sink_a");
    SinkNode sink_b(sim, 2, "sink_b");
    Link a(sim, "a", Bandwidth::gbps(10), 2_us,
           std::make_unique<DropTailQueue>(DropTailQueue::Config{.capacity_pkts = 8}), bind);
    Link b(sim, "b", Bandwidth::gbps(25), 3_us, std::make_unique<DropTailQueue>(), bind);
    a.connect_to(sink_a, 0);
    b.connect_to(sink_b, 0);
    for (int i = 0; i < 40; ++i) {
      sim.schedule_at(SimTime::nanoseconds(150 * i), [&a, &b, i] {
        Packet pa = make_pkt(0, 1, 500 + 10 * static_cast<std::uint32_t>(i));
        pa.flow_hash = 1000 + static_cast<std::uint64_t>(i);
        a.send(std::move(pa));
        Packet pb = make_pkt(0, 2, 900);
        pb.flow_hash = 2000 + static_cast<std::uint64_t>(i);
        b.send(std::move(pb));
      });
    }
    for (SimTime t = 500_ns; t < 30_us; t += 500_ns) {
      sim.run(t);
      if (shared) {
        EXPECT_EQ(pool.live(), a.held_packets() + b.held_packets()) << t.to_string();
      }
    }
    sim.run();
    EXPECT_GT(a.queue().stats().dropped(), 0u);  // the 8-packet queue overflowed
    EXPECT_EQ(pool.live(), 0u);
    Arrivals got_a, got_b;
    for (std::size_t i = 0; i < sink_a.pkts.size(); ++i) {
      got_a.emplace_back(sink_a.pkts[i].flow_hash, sink_a.arrival_times[i]);
    }
    for (std::size_t i = 0; i < sink_b.pkts.size(); ++i) {
      got_b.emplace_back(sink_b.pkts[i].flow_hash, sink_b.arrival_times[i]);
    }
    return std::make_pair(got_a, got_b);
  };
  const auto own = run(false);
  const auto shared = run(true);
  EXPECT_EQ(shared.first, own.first);
  EXPECT_EQ(shared.second, own.second);
  EXPECT_EQ(shared.second.size(), 40u);
  for (const auto& [flow, at] : shared.first) EXPECT_LT(flow, 2000u) << "b's packet reached a";
}

TEST(Link, DestroyedLinkReturnsItsSlotsToASharedPool) {
  sim::Simulator sim;
  PacketPool pool;
  SinkNode sink(sim, 1, "sink");
  {
    Link link(sim, "l", Bandwidth::gbps(10), 10_us, std::make_unique<DropTailQueue>(), &pool);
    link.connect_to(sink, 0);
    for (int i = 0; i < 20; ++i) link.send(make_pkt(0, 1, 1000));  // 800 ns each
    sim.run(5_us);  // some propagating, one serializing, the rest queued
    EXPECT_EQ(pool.live(), 20u);
    EXPECT_EQ(link.held_packets(), 20u);
  }
  EXPECT_EQ(pool.live(), 0u);
}

TEST(Link, CountsDeliveredBytes) {
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(10), SimTime::zero(),
            std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  link.send(make_pkt(0, 1, 700));
  sim.run();
  EXPECT_EQ(link.stats().pkts_delivered, 1u);
  EXPECT_EQ(link.stats().bytes_delivered, 700u);
}

TEST(Link, DownLinkBlackholesSendsAndCountsThem) {
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(10), 1_us, std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  link.set_up(false);
  EXPECT_FALSE(link.is_up());
  for (int i = 0; i < 3; ++i) link.send(make_pkt(0, 1, 1000));
  sim.run();
  EXPECT_TRUE(sink.pkts.empty());
  EXPECT_EQ(link.stats().pkts_dropped_down, 3u);
  EXPECT_EQ(link.stats().pkts_delivered, 0u);
}

TEST(Link, GoingDownDiscardsQueuedButDeliversInFlight) {
  // Propagation 10us >> serialization 800ns: cut the fiber while packet 1 is
  // propagating, packet 2 is serializing and packet 3 still queued. The
  // propagating and serializing packets are already "in the fiber" behind
  // the cut and arrive; the queued one is discarded by the port flap.
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(10), 10_us, std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  for (int i = 0; i < 3; ++i) link.send(make_pkt(0, 1, 1000));  // 800ns tx each
  sim.schedule_at(1_us, [&] {
    EXPECT_EQ(link.queue().len_pkts(), 1u);  // pkt 3 queued, pkt 2 serializing
    link.set_up(false);
    EXPECT_EQ(link.queue().len_pkts(), 0u);  // flap discarded the queue
  });
  sim.run();
  EXPECT_EQ(sink.pkts.size(), 2u);
  EXPECT_EQ(link.stats().pkts_delivered, 2u);
}

TEST(Link, FlapToUpResumesTransmission) {
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(10), 1_us, std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  link.set_up(false);
  link.send(make_pkt(0, 1, 1000));  // blackholed while down
  sim.schedule_at(5_us, [&] {
    link.set_up(true);
    EXPECT_TRUE(link.is_up());
    link.send(make_pkt(0, 1, 1000));  // flows again after the flap
  });
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0], 5_us + 800_ns + 1_us);
  EXPECT_EQ(link.stats().pkts_dropped_down, 1u);
  EXPECT_EQ(link.stats().pkts_delivered, 1u);
}

TEST(Link, StampsEcnPathletFeedbackOnMtpData) {
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(10), SimTime::zero(),
            std::make_unique<DropTailQueue>(
                DropTailQueue::Config{.capacity_pkts = 16, .ecn_threshold_pkts = 1}));
  link.connect_to(sink, 0);
  link.set_pathlet({.id = 42, .feedback = proto::FeedbackType::kEcn});

  auto mk = [](bool ack) {
    Packet p = make_pkt(0, 1, 1000, Ecn::kEct);
    proto::MtpHeader h;
    h.type = ack ? proto::MtpPacketType::kAck : proto::MtpPacketType::kData;
    h.tc = 3;
    h.msg_len_pkts = 1;
    p.header = h;
    return p;
  };
  link.send(mk(false));  // dequeued for tx immediately: queue empty, no mark
  link.send(mk(false));  // queue empty at enqueue (pkt 0 in serializer): no mark
  link.send(mk(false));  // pkt 1 still queued: occupancy 1 >= K=1, marked
  link.send(mk(true));   // ACK: never stamped
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 4u);
  const auto& fb0 = sink.pkts[0].mtp().path_feedback();
  ASSERT_EQ(fb0.size(), 1u);
  EXPECT_EQ(fb0[0].pathlet, 42u);
  EXPECT_EQ(fb0[0].tc, 3);
  EXPECT_EQ(fb0[0].feedback.type, proto::FeedbackType::kEcn);
  EXPECT_EQ(fb0[0].feedback.value, 0u);
  EXPECT_EQ(sink.pkts[1].mtp().path_feedback()[0].feedback.value, 0u);
  EXPECT_EQ(sink.pkts[2].mtp().path_feedback()[0].feedback.value, 1u);
  EXPECT_TRUE(sink.pkts[3].mtp().path_feedback().empty());
}

TEST(Link, DoesNotBlameUpstreamCeMarks) {
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(10), SimTime::zero(),
            std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  link.set_pathlet({.id = 7, .feedback = proto::FeedbackType::kEcn});
  Packet p = make_pkt(0, 1, 1000, Ecn::kCe);  // already marked upstream
  proto::MtpHeader h;
  h.msg_len_pkts = 1;
  p.header = h;
  link.send(std::move(p));
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 1u);
  EXPECT_EQ(sink.pkts[0].mtp().path_feedback()[0].feedback.value, 0u);
}

TEST(Link, DelayFeedbackReportsQueueingDelay) {
  sim::Simulator sim;
  SinkNode sink(sim, 1, "sink");
  Link link(sim, "l", Bandwidth::gbps(10), SimTime::zero(),
            std::make_unique<DropTailQueue>());
  link.connect_to(sink, 0);
  link.set_pathlet({.id = 7, .feedback = proto::FeedbackType::kDelay});
  for (int i = 0; i < 2; ++i) {
    Packet p = make_pkt(0, 1, 1000, Ecn::kEct);
    proto::MtpHeader h;
    h.msg_len_pkts = 1;
    p.header = h;
    link.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(sink.pkts.size(), 2u);
  // First packet: no queueing. Second waited one serialization time (800ns).
  EXPECT_EQ(sink.pkts[0].mtp().path_feedback()[0].feedback.value, 0u);
  EXPECT_EQ(sink.pkts[1].mtp().path_feedback()[0].feedback.value, 800u);
}

// ------------------------------------------------------- lazy departures
//
// A link over a FIFO queue settles serialization ends on demand instead of
// scheduling them. A DropTailQueue that reports fifo() == false makes the
// link keep one finish event per packet: the same packets, the same order,
// through the eager path.

class EagerDropTailQueue final : public DropTailQueue {
 public:
  using DropTailQueue::DropTailQueue;
  bool fifo() const override { return false; }
};

std::unique_ptr<Queue> drop_tail(bool lazy, DropTailQueue::Config cfg = {}) {
  if (lazy) return std::make_unique<DropTailQueue>(cfg);
  return std::make_unique<EagerDropTailQueue>(cfg);
}

TEST(LazyDepartures, TimerAtASerializationEndSeesItFinished) {
  // Two 1000 B packets at 10G: the first ends at 800 ns. A plain timer at
  // exactly 800 ns, scheduled before either send, sees the first packet
  // transmitted and the second serializing: serialization ends rank before
  // every FIFO event at their timestamp. (When ends were FIFO events of
  // their own, this timer ran first and saw nothing transmitted.)
  for (const bool lazy : {true, false}) {
    sim::Simulator sim;
    SinkNode sink(sim, 1, "sink");
    Link link(sim, "l", Bandwidth::gbps(10), 1_us, drop_tail(lazy));
    link.connect_to(sink, 0);
    bool fired = false;
    sim.schedule_at(800_ns, [&] {
      fired = true;
      EXPECT_EQ(link.stats().pkts_delivered, 1u) << "lazy=" << lazy;
      EXPECT_EQ(link.queue().len_pkts(), 0u) << "lazy=" << lazy;
      EXPECT_EQ(link.backlog_bytes(), 1000) << "lazy=" << lazy;
    });
    link.send(make_pkt(0, 1, 1000));
    link.send(make_pkt(0, 1, 1000));
    sim.run();
    EXPECT_TRUE(fired);
    ASSERT_EQ(sink.arrival_times.size(), 2u);
    EXPECT_EQ(sink.arrival_times[1], 1600_ns + 1_us);
  }
}

TEST(LazyDepartures, FifoLinkKeepsOnlyItsDeliveryInTheHeap) {
  // 64 back-to-back packets on a lazy link: one heap event (the front
  // delivery) however many packets are serialized or on the wire. The same
  // link over a non-FIFO queue also holds the running finish event.
  for (const bool lazy : {true, false}) {
    sim::Simulator sim;
    SinkNode sink(sim, 1, "sink");
    Link link(sim, "l", Bandwidth::gbps(100), 5_us, drop_tail(lazy));
    link.connect_to(sink, 0);
    for (int i = 0; i < 64; ++i) link.send(make_pkt(0, 1, 1250));  // 100 ns each
    std::size_t max_pending = 0;
    for (SimTime t = 50_ns; t < 12_us; t += 50_ns) {
      sim.run(t);
      max_pending = std::max(max_pending, sim.pending_events());
    }
    sim.run();
    EXPECT_EQ(max_pending, lazy ? 1u : 2u);
    EXPECT_EQ(sim.events_executed(), lazy ? 64u : 128u);
    ASSERT_EQ(sink.pkts.size(), 64u);
    EXPECT_EQ(sink.arrival_times.back(), 6400_ns + 5_us);
  }
}

struct LazyRigResult {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::vector<std::string> trace;  // sorted by (t, record)
};

// Leaf-spine: three senders under leaf l0, one receiver under leaf l1, two
// spines. l0 places messages with the message-aware policy (backlog reads),
// its uplinks carry kRate pathlets (RCP ticks read the queue), and the
// queues are small enough for ECN marks and tail drops. During the run a
// fluid reservation on l1 -> r changes inside a busy period (once at the
// flow model's keyed rank, twice as a plain event) and three links flap
// with packets queued.
LazyRigResult run_lazy_rig(bool lazy) {
  telemetry::TraceSink& sink = telemetry::trace();
  const std::size_t capacity = sink.capacity();
  sink.set_capacity(1 << 20);
  telemetry::TraceSink::set_enabled(true);

  Network net;
  Switch* l0 = net.add_switch("l0");
  Switch* l1 = net.add_switch("l1");
  Switch* m0 = net.add_switch("m0");
  Switch* m1 = net.add_switch("m1");
  Host* r = net.add_host("r");
  std::vector<Host*> senders;
  for (int i = 0; i < 3; ++i) senders.push_back(net.add_host("h" + std::to_string(i)));
  const auto duplex = [&](Node& a, Node& b, Bandwidth bw, DropTailQueue::Config cfg) {
    Link* fwd = net.connect_simplex(a, b, bw, 1_us, drop_tail(lazy, cfg));
    net.connect_simplex(b, a, bw, 1_us, drop_tail(lazy, cfg));
    return fwd;
  };
  const DropTailQueue::Config edge{.capacity_pkts = 64, .ecn_threshold_pkts = 8};
  const DropTailQueue::Config core{.capacity_pkts = 12, .ecn_threshold_pkts = 4};
  for (Host* h : senders) duplex(*h, *l0, Bandwidth::gbps(100), edge);
  Link* up0 = duplex(*l0, *m0, Bandwidth::gbps(40), core);
  Link* up1 = duplex(*l0, *m1, Bandwidth::gbps(40), core);
  duplex(*m0, *l1, Bandwidth::gbps(40), core);
  duplex(*m1, *l1, Bandwidth::gbps(40), core);
  Link* down = duplex(*l1, *r, Bandwidth::gbps(25), core);
  net.build_routes();
  l0->set_policy(std::make_unique<MessageAwarePolicy>());
  up0->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kRate});
  up1->set_pathlet({.id = 2, .feedback = proto::FeedbackType::kRate});

  sim::Simulator& sim = net.simulator();
  sim::RunDigest d(1);
  core::MtpEndpoint rx(*r, {});
  rx.listen(80, [&](const core::ReceivedMessage& m) {
    d.add(0, m.src);
    d.add(0, m.msg_id);
    d.add(0, static_cast<std::uint64_t>(m.bytes));
    d.add(0, static_cast<std::uint64_t>(m.completed_at.ns()));
  });
  std::vector<std::unique_ptr<core::MtpEndpoint>> tx;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    tx.push_back(std::make_unique<core::MtpEndpoint>(*senders[i], core::MtpConfig{}));
    for (int j = 0; j < 8; ++j) {
      const SimTime at = SimTime::nanoseconds(static_cast<std::int64_t>(1300 * i + 4100 * j));
      const std::int64_t bytes = 3000 + 7000 * ((i + j) % 4);
      sim.schedule_at(at, [&, i, bytes] {
        tx[i]->send_message(r->id(), bytes, {.dst_port = 80});
      });
    }
  }
  sim.schedule_keyed_at(12_us, sim::kFlowKeyBase | 1,
                        [down] { down->set_fluid_reserved(15'000'000'000); });
  for (const auto& [link, at] : {std::pair{up0, 14_us}, {down, 9_us}, {up1, 23_us}}) {
    sim.schedule_at(at, [link] { link->set_up(false); });
    sim.schedule_at(at + 700_ns, [link] { link->set_up(true); });
  }
  sim.schedule_at(21_us, [down] { down->set_fluid_reserved(5'000'000'000); });
  sim.schedule_at(26_us, [down] { down->set_fluid_reserved(0); });

  LazyRigResult out;
  out.events = net.run(20_ms);
  EXPECT_EQ(rx.msgs_delivered(), 24u) << "lazy=" << lazy;
  for (const Link* l : net.links()) {
    const LinkStats& st = l->stats();
    const QueueStats& q = l->queue().stats();
    for (const std::uint64_t v : {st.pkts_delivered, st.bytes_delivered, st.pkts_dropped_down,
                                  q.enqueued, q.dequeued, q.dropped(), q.ecn_marked}) {
      d.add(0, v);
    }
  }
  out.digest = d.value();
  EXPECT_LT(sink.recorded(), sink.capacity());
  std::vector<std::pair<std::int64_t, std::string>> rows;
  for (const telemetry::TraceEvent& ev : sink.events()) {
    rows.emplace_back(ev.t.ns(), telemetry::to_json(ev));
  }
  std::sort(rows.begin(), rows.end());
  for (auto& row : rows) out.trace.push_back(std::move(row.second));

  std::uint64_t drops = 0, marks = 0, pkts_dropped_down = 0;
  for (const Link* l : net.links()) {
    drops += l->queue().stats().tail_dropped;
    marks += l->queue().stats().ecn_marked;
    pkts_dropped_down += l->stats().pkts_dropped_down;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(marks, 0u);
  EXPECT_GT(pkts_dropped_down, 0u);  // the flap discarded queued packets
  telemetry::TraceSink::set_enabled(false);
  sink.set_capacity(capacity);
  return out;
}

TEST(LazyDepartures, SettledEndsMatchFinishEventsExactly) {
  const LazyRigResult lazy = run_lazy_rig(true);
  const LazyRigResult eager = run_lazy_rig(false);
  EXPECT_EQ(lazy.digest, eager.digest);
  ASSERT_EQ(lazy.trace.size(), eager.trace.size());
  for (std::size_t i = 0; i < lazy.trace.size(); ++i) {
    ASSERT_EQ(lazy.trace[i], eager.trace[i]) << "record " << i;
  }
  EXPECT_LT(lazy.events, eager.events);
}

TEST(PathletState, RcpRateConvergesTowardCapacityWhenIdle) {
  PathletConfig cfg{.id = 1, .feedback = proto::FeedbackType::kRate};
  PathletState st(cfg, Bandwidth::gbps(100));
  // Start from a clamped-down rate, no arrivals, empty queue: rate recovers.
  for (int i = 0; i < 50; ++i) st.periodic_update(0);
  EXPECT_EQ(st.rcp_rate().bits_per_sec(), Bandwidth::gbps(100).bits_per_sec());
}

TEST(PathletState, RcpRateDropsUnderOverload) {
  PathletConfig cfg{.id = 1, .feedback = proto::FeedbackType::kRate};
  cfg.rcp_rtt = 10_us;
  PathletState st(cfg, Bandwidth::gbps(10));
  // Offer 2x capacity with a standing queue for a while.
  const std::int64_t bytes_per_period = Bandwidth::gbps(20).bytes_in(10_us);
  for (int i = 0; i < 100; ++i) {
    st.on_arrival(bytes_per_period);
    st.periodic_update(/*queue_bytes=*/100'000);
  }
  EXPECT_LT(st.rcp_rate().bits_per_sec(), Bandwidth::gbps(10).bits_per_sec());
}

// --------------------------------------------------------------- switches

TEST(Switch, RoutesToConfiguredPort) {
  Network net;
  Host* a = net.add_host("a");
  Switch* sw = net.add_switch("sw");
  Host* b = net.add_host("b");
  net.connect(*a, *sw, Bandwidth::gbps(10), 100_ns);
  net.connect(*sw, *b, Bandwidth::gbps(10), 100_ns);
  // Switch out-ports: 0 = back toward a, 1 = toward b.
  const std::vector<std::pair<NodeId, PortIndex>> table = {{b->id(), 1}, {a->id(), 0}};
  sw->set_routes(table, {});

  int got = 0;
  b->set_udp_handler(9, [&](Packet&&) { ++got; });
  Packet p = make_pkt(a->id(), b->id(), 100);
  p.header = proto::UdpHeader{1, 9, 100};
  a->send(std::move(p));
  net.simulator().run();
  EXPECT_EQ(got, 1);
}

TEST(Switch, DropsWhenNoRoute) {
  Network net;
  Host* a = net.add_host("a");
  Switch* sw = net.add_switch("sw");
  net.connect(*a, *sw, Bandwidth::gbps(10), 100_ns);
  a->send(make_pkt(a->id(), 77, 100));
  net.simulator().run();
  EXPECT_EQ(sw->no_route_drops(), 1u);
}

TEST(Switch, RouteTableMatchesReferenceMap) {
  // Random route tables — ascending ids, descending ids, sparse gaps,
  // repeated destinations — against a reference map<dst, ports in table
  // order>. route_candidates must agree for every id up to two past the
  // largest, falling back to the default set wherever the reference has no
  // entry, and empty for the switch's own id. A second table replaces the
  // first one whole.
  enum class Shape { kAscending, kDescending, kSparse, kRepeated };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    const auto shape = static_cast<Shape>(seed % 4);
    sim::Simulator sim;
    Switch sw(sim, 0, "sw");
    const std::vector<PortIndex> fallback = {7, 8};
    const bool with_default = seed % 3 != 0;
    const std::vector<std::pair<NodeId, PortIndex>> stale = {{1, 3}, {120, 4}, {6000, 5}};
    sw.set_routes(stale, {9});
    std::map<NodeId, std::vector<PortIndex>> ref;
    std::vector<std::pair<NodeId, PortIndex>> table;
    const int n = 1 + static_cast<int>(rng() % 60);
    NodeId next = 50 + static_cast<NodeId>(rng() % 50);
    for (int i = 0; i < n; ++i) {
      NodeId dst = 0;
      switch (shape) {
        case Shape::kAscending: dst = next++; break;
        case Shape::kDescending: dst = next > 0 ? next-- : 0; break;
        case Shape::kSparse: dst = static_cast<NodeId>(rng() % 5000); break;
        case Shape::kRepeated: dst = 100 + static_cast<NodeId>(rng() % 6); break;
      }
      const auto port = static_cast<PortIndex>(rng() % 16);
      table.emplace_back(dst, port);
      ref[dst].push_back(port);
    }
    sw.set_routes(table, with_default ? fallback : std::vector<PortIndex>{});
    const NodeId max_id = ref.rbegin()->first;
    for (NodeId id = 0; id < max_id + 2; ++id) {
      const auto it = ref.find(id);
      const std::vector<PortIndex> want =
          id == sw.id()     ? std::vector<PortIndex>{}
          : it != ref.end() ? it->second
                            : (with_default ? fallback : std::vector<PortIndex>{});
      const std::span<const PortIndex> got = sw.route_candidates(id);
      ASSERT_EQ(std::vector<PortIndex>(got.begin(), got.end()), want)
          << "seed " << seed << " id " << id;
    }
  }
}

TEST(ForwardingPolicies, SprayAlternatesPorts) {
  SprayPolicy spray;
  const std::vector<PortIndex> cands{3, 5};
  Network net;
  Switch* sw = net.add_switch("sw");
  Packet p = make_pkt(0, 1, 100);
  EXPECT_EQ(spray.select(p, cands, *sw), 3u);
  EXPECT_EQ(spray.select(p, cands, *sw), 5u);
  EXPECT_EQ(spray.select(p, cands, *sw), 3u);
}

TEST(ForwardingPolicies, EcmpIsDeterministicPerFlow) {
  EcmpPolicy ecmp;
  const std::vector<PortIndex> cands{0, 1, 2, 3};
  Network net;
  Switch* sw = net.add_switch("sw");
  Packet p = make_pkt(0, 1, 100);
  p.flow_hash = 0x1234567890;
  const PortIndex first = ecmp.select(p, cands, *sw);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ecmp.select(p, cands, *sw), first);
}

TEST(ForwardingPolicies, EcmpSpreadsAcrossFlows) {
  EcmpPolicy ecmp;
  const std::vector<PortIndex> cands{0, 1, 2, 3};
  Network net;
  Switch* sw = net.add_switch("sw");
  std::vector<int> hits(4, 0);
  sim::Rng rng(17);
  for (int i = 0; i < 4000; ++i) {
    Packet p = make_pkt(0, 1, 100);
    p.flow_hash = rng.next_u64();
    ++hits[ecmp.select(p, cands, *sw)];
  }
  for (int h : hits) EXPECT_NEAR(h, 1000, 150);
}

TEST(ForwardingPolicies, AlternatingFlipsOnPeriod) {
  Network net;
  Switch* sw = net.add_switch("sw");
  AlternatingPathPolicy alt(384_us);
  const std::vector<PortIndex> cands{0, 1};
  Packet p = make_pkt(0, 1, 100);
  EXPECT_EQ(alt.select(p, cands, *sw), 0u);  // t = 0
  net.simulator().run(385_us);               // advance the clock
  EXPECT_EQ(alt.select(p, cands, *sw), 1u);
  net.simulator().run(769_us);
  EXPECT_EQ(alt.select(p, cands, *sw), 0u);
}

TEST(ForwardingPolicies, MessageAwarePinsWholeMessage) {
  Network net;
  Switch* sw = net.add_switch("sw");
  SinkNode sink_a(net.simulator(), 50, "a"), sink_b(net.simulator(), 51, "b");
  Link* la = net.connect_simplex(*sw, sink_a, Bandwidth::gbps(100), 100_ns,
                                 std::make_unique<DropTailQueue>());
  Link* lb = net.connect_simplex(*sw, sink_b, Bandwidth::gbps(100), 100_ns,
                                 std::make_unique<DropTailQueue>());
  (void)la;
  (void)lb;
  MessageAwarePolicy policy;
  const std::vector<PortIndex> cands{0, 1};

  auto mk = [](proto::MsgId msg, std::uint32_t pkt, std::uint32_t total) {
    Packet p = make_pkt(7, 1, 1000);
    proto::MtpHeader h;
    h.msg_id = msg;
    h.pkt_num = pkt;
    h.msg_len_pkts = total;
    p.header = h;
    return p;
  };
  const PortIndex first = policy.select(mk(1, 0, 5), cands, *sw);
  for (std::uint32_t k = 1; k < 5; ++k) {
    EXPECT_EQ(policy.select(mk(1, k, 5), cands, *sw), first);
  }
  // Pin is released after the last packet.
  EXPECT_EQ(policy.pinned_messages(), 0u);
}

TEST(ForwardingPolicies, MessageAwarePrefersLessLoadedPath) {
  Network net;
  Switch* sw = net.add_switch("sw");
  SinkNode sink(net.simulator(), 50, "s");
  net.connect_simplex(*sw, sink, Bandwidth::gbps(100), 100_ns,
                      std::make_unique<DropTailQueue>());
  Link* lb = net.connect_simplex(*sw, sink, Bandwidth::gbps(100), 100_ns,
                                 std::make_unique<DropTailQueue>());
  // Pre-load path 0 (port 0) with traffic.
  for (int i = 0; i < 32; ++i) sw->out_port(0)->send(make_pkt(7, 50, 1500));
  (void)lb;
  MessageAwarePolicy policy;
  const std::vector<PortIndex> cands{0, 1};
  Packet p = make_pkt(7, 50, 1000);
  proto::MtpHeader h;
  h.msg_id = 9;
  h.msg_len_pkts = 1;
  p.header = h;
  EXPECT_EQ(policy.select(p, cands, *sw), 1u);
}

TEST(Network, CountsNodesAndLinks) {
  Network net;
  Host* a = net.add_host("a");
  Host* b = net.add_host("b");
  net.connect(*a, *b, Bandwidth::gbps(10), 1_us);
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.link_count(), 2u);  // duplex = two simplex links
}

}  // namespace
}  // namespace mtp::net
