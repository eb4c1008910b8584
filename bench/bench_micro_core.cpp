// Microbenchmarks of the substrate (google-benchmark): event-queue
// operations, queue datapaths, switch forwarding, and end-to-end
// simulated-packet throughput. These guard the simulator's performance —
// packet-level experiments execute tens of millions of events.
//
// Two extra facilities beyond plain google-benchmark:
//  - a global operator new/delete counter, so the hot benchmarks report
//    allocs_per_event alongside events_per_sec (the allocation-free core
//    contract, docs/perf.md);
//  - a --smoke mode that runs a fixed workload and prints machine-readable
//    `pkts_per_sec=` / `events_per_sec=` / `allocs_per_event=` / `switch_forward_ns=` /
//    `link_hop_ns=` / `heap_op_ns=` / `timer_wheel_ns=` / `mtp_ack_ns=` lines for
//    scripts/check.sh to compare against the recorded baseline in
//    BENCH_core.json.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <string_view>
#include <vector>

#include "innetwork/queues.hpp"
#include "mtp/endpoint.hpp"
#include "net/fat_tree.hpp"
#include "net/forwarding.hpp"
#include "net/network.hpp"
#include "proto/mtp_header.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"

namespace {
// Counts every heap allocation in the process (benchmark library included).
// Benchmarks read deltas around their timed loop, so the noise floor is
// whatever the loop itself allocates — which is exactly the number we want.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Each replacement is noinline: inlined into its callers, g++ sees `new[]`
// (which forwards to `::operator new`) paired with `free` and reports
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
[[gnu::noinline]] void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

using namespace mtp;
using namespace mtp::sim::literals;

namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1024)->Arg(16384);

// Steady-state scheduler churn: one warmed-up simulator, waves of
// schedule+run. This is the shape every long experiment settles into, and
// the allocation-free contract applies exactly here: allocs_per_event must
// read 0.00 (slot pool, heap storage, and free list are all recycled).
void BM_SimulatorSteadyChurn(benchmark::State& state) {
  sim::Simulator sim;
  int counter = 0;
  for (int i = 0; i < 512; ++i) {
    sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
  }
  sim.run();  // warm-up: grow pool and heap to steady state
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) {
      sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
    }
    events += sim.run();
    benchmark::DoNotOptimize(counter);
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(events));
}
BENCHMARK(BM_SimulatorSteadyChurn);

void BM_SimulatorCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      ids.push_back(sim.schedule(1_us, [] {}));
    }
    for (auto id : ids) sim.cancel(id);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorCancel);

net::Packet make_pkt(proto::TrafficClassId tc) {
  net::Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload_bytes = 1000;
  p.header_bytes = 64;
  p.tc = tc;
  proto::MtpHeader h;
  h.msg_len_pkts = 1;
  h.pkt_len = 1000;
  p.header = h;
  return p;
}

void BM_DropTailQueue(benchmark::State& state) {
  net::DropTailQueue q({.capacity_pkts = 1024, .ecn_threshold_pkts = 64});
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.enqueue(make_pkt(0));
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_DropTailQueue);

void BM_WfqQueue(benchmark::State& state) {
  innetwork::WfqQueue q({.per_tc_capacity_pkts = 1024});
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.enqueue(make_pkt(static_cast<proto::TrafficClassId>(i % 4)));
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_WfqQueue);

// Switch forwarding on a k=16 fat-tree core switch (1168 explicit down
// routes: the 1024 hosts plus, per pod, 8 edge and 1 aggregation switch): the
// route-table lookup plus an ECMP select over the candidates, per packet, for
// destinations drawn uniformly over the hosts —
// the per-hop routing work of a fabric run, without the link and event cost.
class SwitchForwardProbe {
 public:
  static constexpr std::size_t kPackets = 4096;

  SwitchForwardProbe() : tree_(net_, {.k = 16}) {
    std::mt19937_64 rng(1);
    pkts_.resize(kPackets);
    for (net::Packet& p : pkts_) {
      p.dst = tree_.host(static_cast<int>(rng() % tree_.hosts().size()))->id();
      p.flow_hash = rng();
    }
  }

  /// Forwarding decisions for every probe packet; returns a port checksum.
  std::uint64_t run() {
    net::Switch& core = *tree_.core(0);
    std::uint64_t sum = 0;
    for (const net::Packet& p : pkts_) {
      sum += ecmp_.select(p, core.route_candidates(p.dst), core);
    }
    return sum;
  }

 private:
  net::Network net_;
  net::FatTree tree_;
  net::EcmpPolicy ecmp_;
  std::vector<net::Packet> pkts_;
};

void BM_SwitchForward(benchmark::State& state) {
  SwitchForwardProbe probe;
  for (auto _ : state) benchmark::DoNotOptimize(probe.run());
  state.SetItemsProcessed(state.iterations() * SwitchForwardProbe::kPackets);
}
BENCHMARK(BM_SwitchForward);

// Link hops over a ring of 1024 links whose DropTail queues each hold ~200
// packets: every delivered packet is re-sent on the next link, so queue
// depths hold steady and the ~220k waiting packets (tens of MB) dwarf L2.
// This is the memory traffic of a congested fabric's link and queue layer —
// enqueue, serialization, chained delivery — without forwarding or
// transport work.
class LinkHopProbe {
 public:
  static constexpr int kLinks = 1024;
  static constexpr int kDepth = 200;

  LinkHopProbe() {
    for (int i = 0; i < kLinks; ++i) {
      relays_.push_back(std::make_unique<Relay>(net_.simulator(),
                                                static_cast<net::NodeId>(1'000'000 + i), hops_));
    }
    for (int i = 0; i < kLinks; ++i) {
      net_.connect_simplex(*relays_[i], *relays_[(i + 1) % kLinks], sim::Bandwidth::gbps(100),
                           1_us,
                           std::make_unique<net::DropTailQueue>(
                               net::DropTailQueue::Config{.capacity_pkts = 256}));
    }
    for (auto& r : relays_) {
      for (int k = 0; k < kDepth; ++k) r->out_port(0)->send(make_pkt(0));
    }
    run(20_us);  // warm up: every link serializing, every pipe full
  }

  /// Runs `span` more simulated time; returns the hops taken in it.
  std::uint64_t run(sim::SimTime span) {
    const std::uint64_t before = hops_;
    end_ = end_ + span;
    net_.simulator().run(end_);
    return hops_ - before;
  }

 private:
  class Relay : public net::Node {
   public:
    Relay(sim::Simulator& s, net::NodeId id, std::uint64_t& hops)
        : Node(s, id, "relay"), hops_(hops) {}
    void receive(net::Packet&& pkt, net::PortIndex) override {
      ++hops_;
      out_port(0)->send(std::move(pkt));
    }
    void send(net::Packet&& pkt) override { out_port(0)->send(std::move(pkt)); }

   private:
    std::uint64_t& hops_;
  };

  net::Network net_;
  std::uint64_t hops_ = 0;
  std::vector<std::unique_ptr<Relay>> relays_;
  sim::SimTime end_;
};

void BM_LinkHop(benchmark::State& state) {
  LinkHopProbe probe;
  std::uint64_t hops = 0;
  for (auto _ : state) hops += probe.run(5_us);
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_LinkHop)->Unit(benchmark::kMillisecond);

// Event-heap churn: 1,024 pending events, each of which schedules its
// successor 0-1,008 ns ahead on a 16 ns grid (so timestamps often tie), from
// a fixed table in which about half the events are keyed and half FIFO. Each
// event is one pop and one push, with no other work: heap_op_ns is the wall
// time per heap operation.
class HeapProbe {
 public:
  static constexpr int kPending = 1024;

  HeapProbe() {
    std::mt19937_64 rng(3);
    for (Step& s : steps_) {
      s.delay = sim::SimTime::nanoseconds(static_cast<std::int64_t>(rng() % 64) * 16);
      s.keyed = (rng() & 1) != 0;
    }
    for (int i = 0; i < kPending; ++i) next();
  }

  /// Runs at least `events` more events; returns how many ran.
  std::uint64_t run(std::uint64_t events) {
    const std::uint64_t before = sim_.events_executed();
    while (sim_.events_executed() - before < events) sim_.run(sim_.now() + 1_us);
    return sim_.events_executed() - before;
  }

 private:
  struct Step {
    sim::SimTime delay;
    bool keyed = false;
  };

  void next() {
    const Step& s = steps_[cursor_++ % steps_.size()];
    if (s.keyed) {
      sim_.schedule_keyed_at(sim_.now() + s.delay, ++key_, [this] { next(); });
    } else {
      sim_.schedule_at(sim_.now() + s.delay, [this] { next(); });
    }
  }

  sim::Simulator sim_;
  std::array<Step, 4096> steps_;
  std::size_t cursor_ = 0;
  std::uint64_t key_ = 0;
};

void BM_HeapOp(benchmark::State& state) {
  HeapProbe probe;
  std::uint64_t events = 0;
  for (auto _ : state) events += probe.run(10'000);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * events));  // push + pop
}
BENCHMARK(BM_HeapOp);

// Timer-wheel churn in the shape of a TCP incast: 16 link chains each deliver
// an ACK every 120 ns (a 1,500 B packet at 100 Gb/s), round-robin over 64
// connections, and every ACK cancels its connection's RTO and re-arms it
// 0.2-2 ms ahead on the simulator's shared wheel, as TcpConnection::arm_rto
// does. The timers almost never fire (each is pushed out long before its
// deadline), but every bucket a re-arm touched is still serviced at its wake
// tick. timer_wheel_ns is the wall time per ACK: one keyed link event popped
// and pushed, one cancel and one arm.
class TimerWheelProbe {
 public:
  static constexpr int kLinks = 16;
  static constexpr int kConns = 64;

  TimerWheelProbe() {
    for (int l = 0; l < kLinks; ++l) deliver(l);
  }

  /// Runs at least `acks` more ACKs; returns how many ran.
  std::uint64_t run(std::uint64_t acks) {
    const std::uint64_t before = acks_;
    while (acks_ - before < acks) sim_.run(sim_.now() + 1_us);
    return acks_ - before;
  }

 private:
  static void rto_fire(void*, std::uint64_t) {}

  void deliver(int link) {
    const std::uint64_t key = (static_cast<std::uint64_t>(link) << 40) | ++deliveries_;
    sim_.schedule_keyed_at(sim_.now() + sim::SimTime::nanoseconds(120), key, [this, link] {
      const int c = static_cast<int>(acks_++ % kConns);
      sim::TimerWheel& wheel = sim_.timers();
      wheel.cancel(rto_[c]);
      rto_[c] = wheel.arm(sim_.now() + 200_us + sim::SimTime::microseconds(28 * c),
                          &TimerWheelProbe::rto_fire, this, static_cast<std::uint64_t>(c));
      deliver(link);
    });
  }

  sim::Simulator sim_;
  std::array<sim::TimerId, kConns> rto_{};
  std::uint64_t deliveries_ = 0;
  std::uint64_t acks_ = 0;
};

void BM_TimerWheelRearm(benchmark::State& state) {
  TimerWheelProbe probe;
  std::uint64_t acks = 0;
  for (auto _ : state) acks += probe.run(10'000);
  state.SetItemsProcessed(static_cast<std::int64_t>(acks));
}
BENCHMARK(BM_TimerWheelRearm);

// The MTP sender's ACK path at k8_burst's per-host load: one endpoint sends
// 25 ten-packet messages to each of 16 destinations, and every data packet
// is SACKed by an ACK of its own, handed straight to the sender's host. A
// sink node swallows the data. Each round drains the (1.6 Tbps) link, then
// delivers the ACKs for everything that arrived; windows open by slow start,
// so each ACK serves one send group while the other destinations' groups
// sit window-blocked. Only the ACK deliveries are timed: SACK bookkeeping,
// uncharge, window update, completion, and the pump that sends the next
// packets.
class MtpAckProbe {
 public:
  static constexpr int kDsts = 16;
  static constexpr int kMsgsPerDst = 25;

  /// One burst from a fresh endpoint; returns the ACKs delivered and adds
  /// the time spent delivering them to `ns`.
  static std::uint64_t burst(double& ns) {
    using Clock = std::chrono::steady_clock;
    net::Network net;
    net::Host* a = net.add_host("a");
    Sink sink(net.simulator());
    net.connect_simplex(*a, sink, sim::Bandwidth::gbps(1600), 1_us,
                        std::make_unique<net::DropTailQueue>(
                            net::DropTailQueue::Config{.capacity_pkts = 1 << 14}));
    core::MtpEndpoint src(*a, {});
    for (int m = 0; m < kMsgsPerDst; ++m) {
      for (int d = 0; d < kDsts; ++d) {
        src.send_message(static_cast<net::NodeId>(100 + d), 10'000, {.dst_port = 80});
      }
    }
    std::uint64_t acks = 0;
    std::vector<net::Packet> batch;
    while (src.outstanding_messages() > 0) {
      net.simulator().run(net.simulator().now() + 20_us);
      batch.clear();
      for (const net::Packet& d : sink.data) {
        net::Packet ack = transport::make_reply(d, d.dst);
        ack.mtp().sack().assign({{d.mtp().msg_id, d.mtp().pkt_num}});
        ack.header_bytes = transport::mtp_header_bytes(ack.mtp());
        batch.push_back(std::move(ack));
      }
      sink.data.clear();
      if (batch.empty()) break;  // nothing in flight: cannot make progress
      const auto t0 = Clock::now();
      for (net::Packet& ack : batch) a->receive(std::move(ack), 0);
      ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      acks += batch.size();
    }
    return acks;
  }

 private:
  class Sink : public net::Node {
   public:
    explicit Sink(sim::Simulator& s) : Node(s, 1'000'000, "sink") {}
    void receive(net::Packet&& pkt, net::PortIndex) override { data.push_back(std::move(pkt)); }
    void send(net::Packet&&) override {}
    std::vector<net::Packet> data;
  };
};

void BM_MtpAck(benchmark::State& state) {
  std::uint64_t acks = 0;
  double ns = 0.0;
  for (auto _ : state) acks += MtpAckProbe::burst(ns);
  state.SetItemsProcessed(static_cast<std::int64_t>(acks));
  state.counters["ack_ns"] = benchmark::Counter(ns / static_cast<double>(acks));
}
BENCHMARK(BM_MtpAck)->Unit(benchmark::kMillisecond);

// One end-to-end MTP transfer over host -> switch -> host; the workload
// behind BM_EndToEndMtpTransfer and the --smoke probe. Returns the number of
// simulator events executed.
std::uint64_t run_e2e_transfer() {
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, sim::Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *b, sim::Bandwidth::gbps(100), 1_us);
  net.build_routes();
  core::MtpEndpoint src(*a, {});
  core::MtpEndpoint dst(*b, {});
  dst.listen(80, [](const core::ReceivedMessage&) {});
  src.send_message(b->id(), 1'000'000, {.dst_port = 80});
  net.simulator().run();
  benchmark::DoNotOptimize(dst.msgs_delivered());
  return net.simulator().events_executed();
}

// End-to-end: packets/second the full stack simulates (hosts, switch,
// queues, MTP endpoints with acking). Reports events_per_sec and
// allocs_per_event (whole-stack: endpoint bookkeeping included, so this is
// the honest per-event allocation trajectory, not just the kernel's).
void BM_EndToEndMtpTransfer(benchmark::State& state) {
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_e2e_transfer();
  }
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  // 1000 data packets + 1000 acks per iteration.
  state.SetItemsProcessed(state.iterations() * 2000);
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(events));
}
BENCHMARK(BM_EndToEndMtpTransfer)->Unit(benchmark::kMicrosecond);

// --smoke: fixed workload, machine-readable output, no benchmark machinery.
// scripts/check.sh compares pkts_per_sec against BENCH_core.json (>25%
// regression fails) and bounds allocs_per_event on the pure-scheduler churn;
// events_per_sec, switch_forward_ns, link_hop_ns, heap_op_ns, timer_wheel_ns
// and mtp_ack_ns are recorded in BENCH_core.json's history, not gated. The
// gate counts packets, not events: the events one packet costs is what
// event-core work changes (a FIFO link settles serialization ends without
// an event), so an events rate would read a saving as a slowdown.
int smoke_main() {
  using Clock = std::chrono::steady_clock;

  // Throughput probe: the end-to-end transfer, best-of-3 to shrug off
  // scheduler noise on shared CI machines. Each transfer moves 1000 data
  // packets and 1000 ACKs.
  constexpr int kTransfers = 20;
  constexpr double kPacketsPerTransfer = 2000;
  double best_events_per_sec = 0.0;
  double best_pkts_per_sec = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::uint64_t events = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kTransfers; ++i) events += run_e2e_transfer();
    const std::chrono::duration<double> dt = Clock::now() - t0;
    best_events_per_sec = std::max(best_events_per_sec, static_cast<double>(events) / dt.count());
    best_pkts_per_sec = std::max(best_pkts_per_sec, kTransfers * kPacketsPerTransfer / dt.count());
  }

  // Allocation probe: steady-state scheduler churn only (the kernel
  // contract; endpoint bookkeeping is measured by the benchmark counters).
  sim::Simulator sim;
  int counter = 0;
  for (int i = 0; i < 512; ++i) {
    sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
  }
  sim.run();
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t churn_events = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 512; ++i) {
      sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
    }
    churn_events += sim.run();
  }
  const std::uint64_t churn_allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  benchmark::DoNotOptimize(counter);

  // Forwarding probe: best-of-3 mean nanoseconds per forwarding decision.
  SwitchForwardProbe forward;
  double best_forward_ns = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    constexpr int kRounds = 500;
    const auto t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) benchmark::DoNotOptimize(forward.run());
    const std::chrono::duration<double, std::nano> dt = Clock::now() - t0;
    const double ns = dt.count() / (kRounds * SwitchForwardProbe::kPackets);
    if (attempt == 0 || ns < best_forward_ns) best_forward_ns = ns;
  }

  // Link-hop probe: best-of-3 mean nanoseconds per hop, 100 us of
  // simulated time (~1.2M hops) each.
  LinkHopProbe hop;
  double best_hop_ns = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto t0 = Clock::now();
    const std::uint64_t hops = hop.run(100_us);
    const std::chrono::duration<double, std::nano> dt = Clock::now() - t0;
    const double ns = dt.count() / static_cast<double>(hops);
    if (attempt == 0 || ns < best_hop_ns) best_hop_ns = ns;
  }

  // Heap probe: best-of-3 mean nanoseconds per heap operation, 2M events
  // (4M operations) each.
  HeapProbe heap;
  double best_heap_ns = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto t0 = Clock::now();
    const std::uint64_t events = heap.run(2'000'000);
    const std::chrono::duration<double, std::nano> dt = Clock::now() - t0;
    const double ns = dt.count() / static_cast<double>(2 * events);
    if (attempt == 0 || ns < best_heap_ns) best_heap_ns = ns;
  }

  // Timer-wheel probe: best-of-3 mean nanoseconds per re-arming ACK, 2M
  // ACKs each.
  TimerWheelProbe wheel;
  double best_wheel_ns = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto t0 = Clock::now();
    const std::uint64_t acks = wheel.run(2'000'000);
    const std::chrono::duration<double, std::nano> dt = Clock::now() - t0;
    const double ns = dt.count() / static_cast<double>(acks);
    if (attempt == 0 || ns < best_wheel_ns) best_wheel_ns = ns;
  }

  // MTP ACK probe: best-of-3 mean nanoseconds per ACK, 20 bursts (80k
  // ACKs) each.
  double best_ack_ns = 0.0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    double ns = 0.0;
    std::uint64_t acks = 0;
    for (int i = 0; i < 20; ++i) acks += MtpAckProbe::burst(ns);
    const double per_ack = ns / static_cast<double>(acks);
    if (attempt == 0 || per_ack < best_ack_ns) best_ack_ns = per_ack;
  }

  std::printf("pkts_per_sec=%.0f\n", best_pkts_per_sec);
  std::printf("events_per_sec=%.0f\n", best_events_per_sec);
  std::printf("allocs_per_event=%.6f\n",
              static_cast<double>(churn_allocs) / static_cast<double>(churn_events));
  std::printf("switch_forward_ns=%.2f\n", best_forward_ns);
  std::printf("link_hop_ns=%.2f\n", best_hop_ns);
  std::printf("heap_op_ns=%.2f\n", best_heap_ns);
  std::printf("timer_wheel_ns=%.2f\n", best_wheel_ns);
  std::printf("mtp_ack_ns=%.2f\n", best_ack_ns);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return smoke_main();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
