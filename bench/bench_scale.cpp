// Scale-out fabric benchmark: 100k+ concurrent messages on a fat-tree.
//
// The paper argues MTP's per-message state is what lets in-network fabrics
// scale; this bench puts a number on it. Four probes:
//
//  1. Capacity + throughput: a k=8 fat-tree (128 hosts, 16 cores) where
//     every host bursts 800 x 10 KB messages to a host 37 ranks away —
//     102,400 messages injected inside 10 us, far faster than they drain, so
//     >= 100k messages are concurrently in flight. The per-message retx
//     timers live on the shared sim::TimerWheel (one bucket op per arm, not
//     an O(inflight) scan), and the workload replays from one
//     workload::ArrivalSchedule cursor event. Reports events/s against the
//     BENCH_core.json end-to-end rate and peak RSS (getrusage).
//  2. Idle-message footprint: park 100k admitted-but-window-limited
//     messages on one endpoint and report net heap bytes per message (the
//     compact PktMeta/PktFifo layout; the old two-deque layout burned
//     ~1.2 KB per idle message in empty deque chunks alone); the same for
//     20k idle TCP connections; the heap bytes per metric point of one
//     registry snapshot of a k=8 fabric; and the heap bytes per MTP ACK
//     parked in flight.
//  3. Space-parallel speedup: the k=16 burst run on 1/2/4/8 sim::sharded
//     shards (`--shards N` runs one shard count by itself). The completion
//     digest — a sim::RunDigest with one cell per source host, so it is
//     independent of how completions interleave across shards — must be
//     bit-identical for every shard count; events/s against shards=1 is the
//     speedup. The table also lands in a telemetry::RunReport
//     ("scale_shards").
//  4. Hybrid fidelity: fluid bulk vs packet bulk on the fig3/fig7 rigs, and
//     the k=32 tenant-isolation run at 1/2/4 shards (scenario/hybrid.hpp).
//
// `--smoke` runs probes 1-4 at k=8/k=16/k=32 and prints machine-readable
// lines for scripts/check.sh (compared against BENCH_scale.json); the
// default mode also runs the k=16 (1024-host) smoke to prove the fabric
// constructs and routes at four-digit host counts. Serial-vs-ParallelSweep
// determinism is tests/scale_test.cpp's ScenarioSweep case.
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/fat_tree.hpp"
#include "scenario/hybrid.hpp"
#include "scenario/scenario.hpp"
#include "stats/table.hpp"
#include "telemetry/report.hpp"
#include "transport/tcp.hpp"

namespace {
// Net heap bytes currently allocated by this process (tracked via the
// global operator new/delete overrides below). Used for the idle-message
// footprint probe; deltas around a parked population are what we report.
std::atomic<std::int64_t> g_heap_bytes{0};

void* track_alloc(std::size_t n) {
  // Stash the size in a header so delete can subtract it.
  constexpr std::size_t kHeader = alignof(std::max_align_t);
  void* raw = std::malloc(n + kHeader);
  if (!raw) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = n;
  g_heap_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void track_free(void* p) noexcept {
  if (!p) return;
  constexpr std::size_t kHeader = alignof(std::max_align_t);
  void* raw = static_cast<char*>(p) - kHeader;
  g_heap_bytes.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)),
                         std::memory_order_relaxed);
  std::free(raw);
}
}  // namespace

void* operator new(std::size_t n) { return track_alloc(n); }
void* operator new[](std::size_t n) { return track_alloc(n); }
void operator delete(void* p) noexcept { track_free(p); }
void operator delete(void* p, std::size_t) noexcept { track_free(p); }
void operator delete[](void* p) noexcept { track_free(p); }
void operator delete[](void* p, std::size_t) noexcept { track_free(p); }

using namespace mtp;
using namespace mtp::sim::literals;

namespace {

constexpr std::int64_t kMsgBytes = 10'000;  // 10 packets at the 1000 B MTU

/// CPUs this process may actually run on (the cgroup/affinity mask, not the
/// machine) — what decides whether a sharded speedup is measurable here.
unsigned available_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

struct ScaleResult {
  int hosts = 0;
  unsigned shards = 1;
  std::uint64_t messages = 0;
  std::uint64_t completed = 0;
  std::uint64_t peak_concurrent = 0;
  std::uint64_t events = 0;
  std::uint64_t pkt_hops = 0;
  std::uint64_t windows = 0;
  std::uint64_t digest = 0;
  double wall_sec = 0;
  double sim_ms = 0;
  double events_per_sec = 0;
  double hops_per_sec = 0;
};

/// Probes 1 and 3: burst `msgs_per_host` messages from every fat-tree host
/// to the host 37 ranks away, all inside the first 10 us of simulated time,
/// on `shards` space shards. The digest folds each completion into the cell
/// of its *source host*: per-host completion order is part of the
/// (shard-invariant) timeline while cross-host interleaving is not, so equal
/// digests across shard counts mean the sharded run completed the same
/// messages at the same simulated times.
ScaleResult run_fat_tree_burst(int k, int msgs_per_host,
                               scenario::Forwarding fwd = scenario::Forwarding::kEcmp,
                               unsigned shards = 1) {
  using Clock = std::chrono::steady_clock;
  const int hosts = k * k * k / 4;

  // One flat schedule: src field = sender host index. Under shards > 1 the
  // scenario replays each host's arrivals on the shard that owns the host,
  // keyed by global schedule index (workload::KeyedReplay).
  workload::ArrivalSchedule sched;
  for (int m = 0; m < msgs_per_host; ++m) {
    const sim::SimTime at = sim::SimTime::nanoseconds(m * 10'000 / msgs_per_host);
    for (int h = 0; h < hosts; ++h) {
      sched.add(at, static_cast<std::uint32_t>(h), kMsgBytes);
    }
  }

  auto s = scenario::ScenarioBuilder()
               .seed(7)
               .shards(shards)
               .topology(scenario::topo::fat_tree({.k = k}))
               .forwarding(fwd)
               .transport("mtp")
               .workload(std::move(sched))
               .build();

  ScaleResult r;
  r.hosts = hosts;
  r.shards = shards;
  r.messages = static_cast<std::uint64_t>(hosts) * msgs_per_host;

  // Counters live per shard (cacheline-padded: each slot is written only by
  // its shard's worker thread) and digest cells per source host (each host
  // lives on exactly one shard).
  struct alignas(64) ShardStat {
    std::uint64_t outstanding = 0;
    std::uint64_t peak = 0;
    std::uint64_t completed = 0;
  };
  std::vector<ShardStat> st(shards);
  sim::RunDigest digest(hosts);

  scenario::Scenario* sp = s.get();
  s->set_arrival_handler([sp, &st, &digest, hosts](const workload::ArrivalSchedule::Arrival& a) {
    const int src = static_cast<int>(a.src);
    const auto dst = sp->topo().senders[(src + 37) % hosts]->id();
    ShardStat& ss = st[sp->network().shard_of(*sp->topo().senders[src])];
    ++ss.outstanding;
    if (ss.outstanding > ss.peak) ss.peak = ss.outstanding;
    sp->mtp_sender(a.src)->send_message(
        dst, a.bytes, {.dst_port = 80},
        [&ss, &digest, src](proto::MsgId, sim::SimTime fct) {
          --ss.outstanding;
          ++ss.completed;
          digest.add(src, static_cast<std::uint64_t>(fct.ns()));
        });
  });

  const auto t0 = Clock::now();
  r.events = s->run(200_ms);
  r.wall_sec = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const ShardStat& ss : st) {
    r.completed += ss.completed;
    r.peak_concurrent += ss.peak;  // sum of per-shard peaks (== peak at shards=1)
  }
  r.digest = digest.value();
  r.windows = s->windows();
  r.sim_ms = s->simulator().now().ms();
  r.events_per_sec = static_cast<double>(r.events) / r.wall_sec;
  r.pkt_hops = s->network().pkt_hops();
  r.hops_per_sec = static_cast<double>(r.pkt_hops) / r.wall_sec;
  return r;
}

/// Probe 2: park `count` window-limited messages on one endpoint and
/// report net heap bytes per parked message.
double idle_message_bytes(int count) {
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
  // Warm up internal tables so their first-touch growth isn't attributed
  // to the parked population.
  src.send_message(b->id(), kMsgBytes, {.dst_port = 80});
  net.simulator().run();

  const std::int64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < count; ++i) {
    // No done-callback: we are measuring protocol state, not app closures.
    src.send_message(b->id(), kMsgBytes, {.dst_port = 80});
  }
  const std::int64_t after = g_heap_bytes.load(std::memory_order_relaxed);
  const double per_msg = static_cast<double>(after - before) / count;
  net.simulator().run();  // drain so destructors run cleanly
  return per_msg;
}

/// Probe 2b: park `count` idle *established* TCP connections (both endpoints
/// in-process) and report net heap bytes per connection — the Fig 3 cost MTP
/// deletes by not keeping connections at all. Compare bytes_per_idle_msg:
/// an idle MTP message is transient state, an idle TCP connection is
/// permanent state. The connects go out in batches that fit one 128-packet
/// link queue, each run to quiescence: a single 20k-SYN burst tail-drops
/// most SYNs and leaves aborted clients instead of idle connections.
double idle_connection_bytes(int count) {
  constexpr int kBatch = 64;
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, sim::Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *b, sim::Bandwidth::gbps(100), 1_us);
  net.build_routes();
  transport::TcpStack src(*a, {});
  transport::TcpStack dst(*b, {});
  std::vector<std::shared_ptr<transport::TcpConnection>> opened, accepted;
  dst.listen(7, [&accepted](std::shared_ptr<transport::TcpConnection> c) {
    accepted.push_back(std::move(c));
  });
  // Warm up stack tables and pre-size the app-side vectors so neither
  // first-touch growth nor reallocation churn lands in the measurement.
  opened.reserve(count + 1);
  accepted.reserve(count + 1);
  opened.push_back(src.connect(b->id(), 7));
  net.simulator().run();

  const std::int64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < count; ++i) {
    opened.push_back(src.connect(b->id(), 7));
    if ((i + 1) % kBatch == 0) net.simulator().run();  // handshakes to ESTABLISHED
  }
  net.simulator().run();
  const std::int64_t after = g_heap_bytes.load(std::memory_order_relaxed);
  std::size_t established = 0;
  for (const auto& c : opened) {
    if (c->state() == transport::TcpConnection::State::kEstablished) ++established;
  }
  if (established != opened.size() || accepted.size() != opened.size()) {
    std::fprintf(stderr, "idle_connection_bytes: %zu of %zu clients established, %zu accepted\n",
                 established, opened.size(), accepted.size());
    std::abort();
  }
  return static_cast<double>(after - before) / count;
}

/// Probe 2c: heap bytes one telemetry::RegistrySnapshot of a k=8 MTP fabric
/// holds, per metric point. An end-of-run snapshot was the largest single
/// block of a k=32 run's peak memory (docs/perf.md), so its per-point cost
/// is gated: the provider labels are copied, the metric names are not.
double snapshot_bytes_per_point() {
  const auto s = scenario::ScenarioBuilder()
                     .seed(7)
                     .topology(scenario::topo::fat_tree({.k = 8}))
                     .transport("mtp")
                     .build();
  const std::int64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  const telemetry::RegistrySnapshot snap = s->snapshot();
  const std::int64_t after = g_heap_bytes.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / static_cast<double>(snap.point_count());
}

/// Probe 2e: heap bytes a fresh telemetry::MetricRegistry holds per provider
/// when `links` link/queue provider pairs register, as every fabric link
/// does. Each pair shares one instance label of 19 characters, longer than
/// a std::string keeps inline, so a label copied per provider would show.
double registry_bytes_per_provider(int links) {
  telemetry::MetricRegistry reg;  // empty: allocates on the first add
  std::vector<telemetry::Registration> regs;
  regs.reserve(2 * static_cast<std::size_t>(links));
  const std::int64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  const int stats = 0;
  auto fn = [p = &stats](std::vector<telemetry::MetricSample>& out) {
    out.push_back({"v", telemetry::MetricKind::kGauge, static_cast<double>(*p)});
  };
  for (int i = 0; i < links; ++i) {
    const std::string name = "host" + std::to_string(100'000 + i) + "->edge_sw";
    regs.push_back(reg.add("link", name, fn));
    regs.push_back(reg.add("queue", name, fn));
  }
  const std::int64_t after = g_heap_bytes.load(std::memory_order_relaxed);
  if (reg.provider_count() != regs.size()) std::abort();
  return static_cast<double>(after - before) / static_cast<double>(regs.size());
}

/// Probe 2d: heap bytes per parked MTP ACK. A receiving MtpEndpoint ACKs
/// `count` in-order data packets of one message, one packet at a time, and
/// the sending host parks every ACK in a pre-sized vector instead of
/// consuming it — the ~95k ACKs in flight at k16_msgaware's peak
/// (docs/perf.md). The ACKs come from the endpoint's own ACK path, so what
/// each one holds beyond its Packet is that path's header list storage.
double parked_ack_bytes(int count) {
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, sim::Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *b, sim::Bandwidth::gbps(100), 1_us);
  net.build_routes();
  core::MtpEndpoint rx(*b, {});
  rx.listen(80, [](const core::ReceivedMessage&) {});
  std::vector<net::Packet> parked;
  parked.reserve(count + 1);
  a->set_mtp_handler([&parked](net::Packet&& p) { parked.push_back(std::move(p)); });
  // One message two packets longer than the probe, so it never completes.
  const auto total = static_cast<std::uint32_t>(count + 2);
  auto deliver = [&](std::uint32_t pkt) {
    net::Packet p;
    p.src = a->id();
    p.dst = b->id();
    p.payload_bytes = 1000;
    p.header_bytes = transport::kMtpBaseHeaderBytes;
    auto& h = p.header.emplace<proto::MtpHeader>();
    h.src_port = 9;
    h.dst_port = 80;
    h.msg_id = 1;
    h.msg_len_pkts = total;
    h.msg_len_bytes = 1000ull * total;
    h.pkt_num = pkt;
    h.pkt_offset = 1000ull * pkt;
    h.pkt_len = 1000;
    b->receive(std::move(p), 0);
    net.simulator().run();
  };
  deliver(0);  // the message's receive record exists before the measurement

  const std::int64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  for (int i = 1; i <= count; ++i) deliver(static_cast<std::uint32_t>(i));
  const std::int64_t after = g_heap_bytes.load(std::memory_order_relaxed);
  std::size_t one_sack_acks = 0;
  for (const net::Packet& p : parked) {
    one_sack_acks += p.mtp().is_ack() && p.mtp().sack().size() == 1;
  }
  if (one_sack_acks != static_cast<std::size_t>(count) + 1) {
    std::fprintf(stderr, "parked_ack_bytes: %zu one-SACK ACKs among %zu parked, want %d\n",
                 one_sack_acks, parked.size(), count + 1);
    std::abort();
  }
  return static_cast<double>(after - before) / count;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB -> MB
}

/// Two runs are "the same experiment" when they completed the same messages
/// at the same simulated times. Raw event counts are NOT compared: each
/// shard runs its own sim::TimerWheel, so one serial bucket-wake serving
/// timers of several shards becomes one wake per shard — a handful of extra
/// bookkeeping events that never touch the model timeline.
bool same_run(const ScaleResult& a, const ScaleResult& b) {
  return a.digest == b.digest && a.completed == b.completed;
}

int smoke_main() {
  // The wall-clock-rate floors (hops_per_sec, shard1/shard8) are judged
  // best-of-3, with the three configurations *interleaved* round-robin: a
  // noisy-neighbor burst on a shared CI box then degrades one sample of
  // each config instead of every sample of one config, so the per-config
  // max recovers the machine's real rate. Digests must agree across rounds
  // (same seed, same timeline) — gated below alongside the shard digests.
  ScaleResult r{}, s1{}, s8{};
  bool repeat_match = true;
  for (int round = 0; round < 3; ++round) {
    const ScaleResult a = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/800);
    const ScaleResult b = run_fat_tree_burst(/*k=*/16, /*msgs_per_host=*/64,
                                             scenario::Forwarding::kEcmp, /*shards=*/1);
    const ScaleResult c = run_fat_tree_burst(/*k=*/16, /*msgs_per_host=*/64,
                                             scenario::Forwarding::kEcmp, /*shards=*/8);
    if (round == 0) {
      r = a;
      s1 = b;
      s8 = c;
    } else {
      repeat_match = repeat_match && same_run(r, a) && same_run(s1, b) && same_run(s8, c);
      if (a.hops_per_sec > r.hops_per_sec) r = a;
      if (b.hops_per_sec > s1.hops_per_sec) s1 = b;
      if (c.hops_per_sec > s8.hops_per_sec) s8 = c;
    }
  }
  const double idle = idle_message_bytes(100'000);
  const double idle_conn = idle_connection_bytes(20'000);
  const double snapshot_point = snapshot_bytes_per_point();
  const double parked_ack = parked_ack_bytes(20'000);
  const double registry_provider = registry_bytes_per_provider(10'000);

  // Probe 3 (sharded): digest equality at k=8 across 1/2/4 shards, then the
  // k=16 speedup pair. scripts/check.sh gates the digests unconditionally
  // and the speedup only when shard_available_cores is large enough to make
  // a wall-clock ratio meaningful (a 1-vCPU CI box timeslices the shards).
  const ScaleResult d1 = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/64,
                                            scenario::Forwarding::kEcmp, /*shards=*/1);
  const ScaleResult d2 = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/64,
                                            scenario::Forwarding::kEcmp, /*shards=*/2);
  const ScaleResult d4 = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/64,
                                            scenario::Forwarding::kEcmp, /*shards=*/4);
  const bool shard_match =
      repeat_match && same_run(d1, d2) && same_run(d1, d4) && same_run(s1, s8);

  // Probe 4 (hybrid): the fluid bulk model must reproduce the packet-level
  // foreground percentiles on the fig3/fig7 rigs while collapsing the bulk
  // share of events, and the k=32 (8192-host) tenant-isolation scenario
  // must complete digest-identically on 1/2/4 shards.
  const auto f3 = scenario::hybrid::fig3_fidelity();
  const auto f7 = scenario::hybrid::fig7_fidelity();
  const auto k32a = scenario::hybrid::tenant_isolation(/*k=*/32, /*shards=*/1);
  const auto k32b = scenario::hybrid::tenant_isolation(/*k=*/32, /*shards=*/2);
  const auto k32c = scenario::hybrid::tenant_isolation(/*k=*/32, /*shards=*/4);
  const bool k32_match = k32a.digest == k32b.digest && k32a.digest == k32c.digest &&
                         k32a.fg_completed == k32a.fg_sent &&
                         k32a.bulk_completed == k32a.bulk_count;
  const double hybrid_delta =
      f3.fct_delta_pct > f7.fct_delta_pct ? f3.fct_delta_pct : f7.fct_delta_pct;
  const double hybrid_ratio =
      f3.bulk_event_ratio < f7.bulk_event_ratio ? f3.bulk_event_ratio : f7.bulk_event_ratio;
  // Best of the three k=32 runs by wall time (equal hop counts: same digest).
  const scenario::hybrid::TenantIsolationResult* k32_best = &k32a;
  for (const auto* k : {&k32b, &k32c}) {
    if (k->hops_per_sec > k32_best->hops_per_sec) k32_best = k;
  }

  // The rates gated are packet hops per wall second: events per hop is an
  // event-core design choice (a FIFO link settles serialization ends without
  // an event), so an events rate would read fewer events as a slowdown. The
  // events rates are printed for reference only.
  std::printf("hops_per_sec=%.0f\n", r.hops_per_sec);
  std::printf("events_per_sec=%.0f\n", r.events_per_sec);
  std::printf("peak_concurrent_msgs=%llu\n",
              static_cast<unsigned long long>(r.peak_concurrent));
  std::printf("completed_msgs=%llu\n", static_cast<unsigned long long>(r.completed));
  std::printf("bytes_per_idle_msg=%.1f\n", idle);
  std::printf("peak_rss_mb=%.1f\n", peak_rss_mb());
  std::printf("shard_available_cores=%u\n", available_cores());
  std::printf("shard_digest_match=%d\n", shard_match ? 1 : 0);
  std::printf("shard1_hops_per_sec=%.0f\n", s1.hops_per_sec);
  std::printf("shard8_hops_per_sec=%.0f\n", s8.hops_per_sec);
  std::printf("shard1_events_per_sec=%.0f\n", s1.events_per_sec);
  std::printf("shard8_events_per_sec=%.0f\n", s8.events_per_sec);
  std::printf("shard8_windows=%llu\n", static_cast<unsigned long long>(s8.windows));
  // Wall-time ratio: the sharded run keeps a finish event on every
  // cross-shard link, so its events are not the serial run's events.
  std::printf("shard_speedup=%.2f\n", s1.wall_sec / s8.wall_sec);
  std::printf("bytes_per_idle_conn=%.1f\n", idle_conn);
  std::printf("snapshot_bytes_per_point=%.1f\n", snapshot_point);
  std::printf("bytes_per_parked_ack=%.1f\n", parked_ack);
  std::printf("registry_bytes_per_provider=%.1f\n", registry_provider);
  std::printf("hybrid_fct_delta_pct=%.2f\n", hybrid_delta);
  std::printf("hybrid_bulk_event_ratio=%.1f\n", hybrid_ratio);
  std::printf("hybrid_k32_hosts=%d\n", k32a.hosts);
  std::printf("hybrid_k32_digest_match=%d\n", k32_match ? 1 : 0);
  std::printf("hybrid_k32_hops_per_sec=%.0f\n", k32_best->hops_per_sec);
  std::printf("hybrid_k32_events_per_sec=%.0f\n", k32_best->events_per_sec);
  return (shard_match && k32_match) ? 0 : 1;
}

/// `--bulk-mode flow|packet|none` in full: the fig3/fig7 fidelity tables and
/// the k=32 tenant-isolation run, with the requested mode's column called out.
int hybrid_main(std::string_view mode) {
  std::printf("=== Hybrid fidelity: packet foreground over %.*s-mode bulk ===\n\n",
              static_cast<int>(mode.size()), mode.data());
  stats::Table t({"experiment", "mode", "fg p50 (us)", "fg p99 (us)", "events",
                  "bulk done"});
  telemetry::RunReport report("scale_hybrid");
  for (const auto& [name, f] :
       {std::pair<const char*, scenario::hybrid::FidelityResult>{
            "fig3 incast", scenario::hybrid::fig3_fidelity()},
        {"fig7 tenants", scenario::hybrid::fig7_fidelity()}}) {
    t.add_row({name, "none", stats::format("%.1f", f.p50_none),
               stats::format("%.1f", f.p99_none),
               stats::format("%llu", static_cast<unsigned long long>(f.events_none)),
               "-"});
    t.add_row({name, "packet", stats::format("%.1f", f.p50_packet),
               stats::format("%.1f", f.p99_packet),
               stats::format("%llu", static_cast<unsigned long long>(f.events_packet)),
               stats::format("%zu", f.bulk_count)});
    t.add_row({name, "flow", stats::format("%.1f", f.p50_flow),
               stats::format("%.1f", f.p99_flow),
               stats::format("%llu", static_cast<unsigned long long>(f.events_flow)),
               stats::format("%zu", f.bulk_count)});
    auto& sec = report.section(name);
    sec.add_scalar("fct_delta_pct", f.fct_delta_pct);
    sec.add_scalar("bulk_event_ratio", f.bulk_event_ratio);
    std::printf("%s: fct_delta=%.2f%% bulk_event_ratio=%.1fx\n", name,
                f.fct_delta_pct, f.bulk_event_ratio);
  }
  t.print();

  std::printf("\n--- k=32 tenant isolation (8192 hosts, fluid bulk) ---\n");
  bool match = true;
  std::uint64_t digest0 = 0;
  for (unsigned shards : {1u, 2u, 4u}) {
    const auto r = scenario::hybrid::tenant_isolation(/*k=*/32, shards);
    if (shards == 1) digest0 = r.digest;
    match = match && r.digest == digest0 && r.fg_completed == r.fg_sent &&
            r.bulk_completed == r.bulk_count;
    std::printf(
        "shards=%u events=%llu wall=%.2fs Mevents/s=%.1f fg=%zu/%zu bulk=%zu/%zu "
        "digest=%016llx\n",
        shards, static_cast<unsigned long long>(r.events), r.wall_sec,
        r.events_per_sec / 1e6, r.fg_completed, r.fg_sent, r.bulk_completed,
        r.bulk_count, static_cast<unsigned long long>(r.digest));
    auto& sec = report.section(stats::format("k32_shards_%u", shards));
    sec.add_scalar("events", static_cast<double>(r.events));
    sec.add_scalar("wall_sec", r.wall_sec);
    sec.add_scalar("events_per_sec", r.events_per_sec);
    sec.add_text("digest",
                 stats::format("%016llx", static_cast<unsigned long long>(r.digest)));
  }
  std::printf("k=32 digests %s across {1,2,4} shards\n",
              match ? "bit-identical" : "MISMATCH");
  report.write();
  return match ? 0 : 1;
}

/// Probe 3 in full: the k=16 burst at 1/2/4/8 shards, printed as a table
/// and written to a telemetry::RunReport.
bool shard_speedup_main(const std::vector<unsigned>& shard_counts) {
  std::printf("\n=== sim::sharded speedup: k=16 burst, %u core(s) available ===\n\n",
              available_cores());
  stats::Table t({"shards", "events", "windows", "wall (s)", "Mevents/s",
                  "speedup", "digest"});
  telemetry::RunReport report("scale_shards");
  std::vector<ScaleResult> rs;
  for (unsigned n : shard_counts) {
    rs.push_back(run_fat_tree_burst(/*k=*/16, /*msgs_per_host=*/64,
                                    scenario::Forwarding::kEcmp, n));
  }
  // Speedup from wall time: cross-shard links keep a finish event per
  // packet, so a sharded run executes more events than the serial one.
  const double base_wall = rs.front().wall_sec;
  bool match = true;
  for (const ScaleResult& r : rs) {
    match = match && same_run(rs.front(), r);
    t.add_row({stats::format("%u", r.shards),
               stats::format("%llu", static_cast<unsigned long long>(r.events)),
               stats::format("%llu", static_cast<unsigned long long>(r.windows)),
               stats::format("%.2f", r.wall_sec),
               stats::format("%.1f", r.events_per_sec / 1e6),
               stats::format("%.2fx", base_wall / r.wall_sec),
               stats::format("%016llx", static_cast<unsigned long long>(r.digest))});
    auto& sec = report.section(stats::format("shards_%u", r.shards));
    sec.add_scalar("shards", r.shards);
    sec.add_scalar("hosts", r.hosts);
    sec.add_scalar("events", static_cast<double>(r.events));
    sec.add_scalar("windows", static_cast<double>(r.windows));
    sec.add_scalar("completed_msgs", static_cast<double>(r.completed));
    sec.add_scalar("wall_sec", r.wall_sec);
    sec.add_scalar("events_per_sec", r.events_per_sec);
    sec.add_scalar("speedup_vs_1", base_wall / r.wall_sec);
    sec.add_text("digest", stats::format("%016llx",
                                         static_cast<unsigned long long>(r.digest)));
  }
  t.print();
  std::printf("shard digests %s across {", match ? "bit-identical" : "MISMATCH");
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    std::printf("%s%u", i ? "," : "", shard_counts[i]);
  }
  std::printf("} shards; %u core(s) available\n", available_cores());
  report.section("env").add_scalar("available_cores", available_cores());
  report.write();
  return match;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return smoke_main();
    if (std::string_view(argv[i]) == "--bulk-mode" && i + 1 < argc) {
      const std::string_view mode(argv[i + 1]);
      if (mode != "flow" && mode != "packet" && mode != "none") {
        std::fprintf(stderr, "bench_scale: --bulk-mode wants flow|packet|none\n");
        return 2;
      }
      return hybrid_main(mode);
    }
    if (std::string_view(argv[i]) == "--shards" && i + 1 < argc) {
      // One shard count by itself (plus the shards=1 baseline it is judged
      // against): the handle for profiling a single configuration.
      const unsigned n = static_cast<unsigned>(std::atoi(argv[i + 1]));
      if (n == 0) {
        std::fprintf(stderr, "bench_scale: --shards needs a count >= 1\n");
        return 2;
      }
      return shard_speedup_main(n == 1 ? std::vector<unsigned>{1}
                                       : std::vector<unsigned>{1, n})
                 ? 0
                 : 1;
    }
  }

  std::printf("=== Scale-out fabrics: fat-tree capacity and event-core throughput ===\n\n");

  stats::Table t({"fabric", "hosts", "messages", "peak in flight", "events",
                  "sim time (ms)", "wall (s)", "Mevents/s"});
  auto row = [&](const char* name, const ScaleResult& r) {
    t.add_row({name, stats::format("%d", r.hosts),
               stats::format("%llu", static_cast<unsigned long long>(r.messages)),
               stats::format("%llu", static_cast<unsigned long long>(r.peak_concurrent)),
               stats::format("%llu", static_cast<unsigned long long>(r.events)),
               stats::format("%.1f", r.sim_ms), stats::format("%.2f", r.wall_sec),
               stats::format("%.1f", r.events_per_sec / 1e6)});
  };

  // The capacity rows run ECMP forwarding: the probe measures the
  // transport + event core at 100k concurrent messages, and per-flow
  // hashing is stateless at the switches. The msg-aware row shows the
  // extra per-hop cost of the paper's per-message placement (a pin-table
  // lookup per packet per switch); the figure benches study its behaviour.
  const ScaleResult k8 = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/800);
  row("k=8 ecmp", k8);
  const ScaleResult k8ma = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/800,
                                              scenario::Forwarding::kMessageAware);
  row("k=8 msg-aware", k8ma);
  // 1024 hosts: a lighter burst — the point is that construction, routing
  // and the timer wheel hold up at four-digit host counts, not raw volume.
  const ScaleResult k16 = run_fat_tree_burst(/*k=*/16, /*msgs_per_host=*/64);
  row("k=16 ecmp", k16);
  t.print();

  const double idle = idle_message_bytes(100'000);
  std::printf("\nidle-message footprint: %.1f bytes/message (100k parked)\n", idle);
  std::printf("peak RSS: %.1f MB\n", peak_rss_mb());

  return shard_speedup_main({1, 2, 4, 8}) ? 0 : 1;
}
