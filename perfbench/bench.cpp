// perfbench: one pass of one benchmark workload, reported as one JSON object.
//
// A pass generates the workload from --seed, builds it through the public
// ScenarioBuilder/Scenario API (--setups times; the last build is the one
// that runs), runs it to the workload's fixed simulated end, checks every
// message, and prints the raw measurements as a single JSON line on stdout.
// perfbench/run.py launches one fresh process per pass, so peak RSS belongs
// to one workload, and turns the passes into the benchmark's metrics.
//
//   perfbench --workload k8_burst --seed 1 [--mode plain|traced]
//             [--no-bulk] [--shards N] [--setups K] [--small]
//             [--trace-out spans.csv]
//
// --mode traced runs the same workload in fixed simulated-time slices via
// Scenario::run(until) and records spans from this file only: setup spans,
// one span per slice (with the gauges sampled at its end), one per
// send_message call and one per completion callback. Spans stay in memory
// and are written to --trace-out when the pass ends. Every number here is
// read from outside the library: wall-clock time around calls into it, and
// its public counters.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/forwarding.hpp"
#include "scenario/scenario.hpp"
#include "sim/timer_wheel.hpp"
#include "stats/stats.hpp"
#include "workload/workload.hpp"

namespace {

using namespace mtp;
using namespace mtp::sim::literals;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Resident set size now, from /proc/self/statm.
double rss_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Peak resident set size of this process (Linux reports KiB).
double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ------------------------------------------------------------------ spans

enum class SpanKind : std::uint8_t { kGen, kTopology, kBuild, kSlice, kSend, kCallback };

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kGen: return "workload.gen";
    case SpanKind::kTopology: return "net.topology";
    case SpanKind::kBuild: return "scenario.build";
    case SpanKind::kSlice: return "sim.slice";
    case SpanKind::kSend: return "mtp.send_message";
    case SpanKind::kCallback: return "app.completion";
  }
  return "?";
}

struct Span {
  SpanKind kind;
  std::int64_t t0, t1;  ///< wall ns
  std::uint64_t a = 0;  ///< slice: events; send/callback: source host
  std::uint64_t b = 0;  ///< slice: pending events at its end
  std::uint64_t c = 0;  ///< slice: armed timers at its end
};

/// In-memory span store: one lane per shard (send and callback spans are
/// recorded on the shard's worker thread) plus a last lane for the calling
/// thread (setup and slice spans). Nothing is written until the pass ends.
class Tracer {
 public:
  void reset(unsigned shards) { lanes_.assign(shards + 1, {}); }
  bool on() const { return !lanes_.empty(); }
  std::vector<Span>& lane(unsigned shard) { return lanes_[shard]; }
  std::vector<Span>& main() { return lanes_.back(); }

  /// Total wall time and count of spans of one kind, over all lanes.
  std::pair<double, std::uint64_t> total(SpanKind k) const {
    std::int64_t ns = 0;
    std::uint64_t n = 0;
    for (const auto& l : lanes_) {
      for (const Span& s : l) {
        if (s.kind != k) continue;
        ns += s.t1 - s.t0;
        ++n;
      }
    }
    return {secs(ns), n};
  }

  /// CSV, one span per line; a/b/c as documented on Span.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "span,lane,t0_ns,t1_ns,a,b,c\n";
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      for (const Span& s : lanes_[lane]) {
        out << span_name(s.kind) << ',' << lane << ',' << s.t0 << ',' << s.t1 << ','
            << s.a << ',' << s.b << ',' << s.c << '\n';
      }
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::vector<Span>> lanes_;
};

Tracer g_tracer;

// ------------------------------------------------------------------- JSON

class Json {
 public:
  Json& num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& str(std::string_view key, std::string_view v) {
    std::string quoted(1, '"');
    quoted.append(v).push_back('"');
    return raw(key, quoted);
  }
  Json& raw(std::string_view key, std::string_view v) {
    body_ += body_.empty() ? "{\"" : ",\"";
    body_.append(key).append("\":").append(v);
    return *this;
  }
  std::string done() const { return body_ + "}"; }

 private:
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool no_bulk = false;
  bool small = false;
  unsigned shards = 0;  ///< 0 = the workload's own shard count
  int setups = 1;
  std::string trace_out;
};

/// Outcome counts and sim-time results shared by every workload.
struct Outcome {
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::vector<double> fct_us;
  double goodput_gbps = 0;
  std::uint64_t digest = 0;
};

void put_outcome(Json& j, const Outcome& o) {
  j.num("offered", static_cast<double>(o.offered));
  j.num("ok", static_cast<double>(o.ok));
  j.num("fct_count", static_cast<double>(o.fct_us.size()));
  if (!o.fct_us.empty()) {
    j.num("fct_p50_us", stats::percentile(o.fct_us, 50));
    j.num("fct_p999_us", stats::percentile(o.fct_us, 99.9));
  }
  j.num("goodput_gbps", o.goodput_gbps);
  j.str("digest", hex64(o.digest));
}

/// Wrap a topology functor so the time spent inside it is measured.
scenario::TopologyFn timed(scenario::TopologyFn fn, std::int64_t* ns) {
  return [fn = std::move(fn), ns](net::Network& net) {
    const std::int64_t t0 = now_ns();
    scenario::Topology t = fn(net);
    const std::int64_t t1 = now_ns();
    *ns = t1 - t0;
    if (g_tracer.on()) g_tracer.main().push_back({SpanKind::kTopology, t0, t1});
    return t;
  };
}

/// Gauges sampled at the end of every slice of a traced run (max over slices).
struct Gauges {
  std::uint64_t pending_max = 0;
  std::uint64_t timers_max = 0;
  std::uint64_t queue_pkts_max = 0;
  std::uint64_t pins_max = 0;
  std::uint64_t outstanding_max = 0;
};

/// Runs `s` to `end`: in one Scenario::run call, or, when tracing, in slices
/// of `slice` simulated time, each recorded as a span with the gauges
/// sampled at its end (`sample_more` adds workload-specific ones). A serial
/// run past `quiet_after` with an empty queue stops early; a sharded one may
/// still hold packets in cross-shard channels, so it runs to `end`.
/// Returns the events executed.
template <class SampleMore>
std::uint64_t run_to(scenario::Scenario& s, sim::SimTime end, sim::SimTime slice,
                     sim::SimTime quiet_after, Gauges& g, SampleMore&& sample_more) {
  if (!g_tracer.on()) return s.run(end);
  net::Network& net = s.network();
  std::uint64_t events = 0;
  for (sim::SimTime t = slice;; t = t + slice) {
    if (t > end) t = end;
    const std::int64_t t0 = now_ns();
    const std::uint64_t ev = s.run(t);
    const std::int64_t t1 = now_ns();
    events += ev;
    std::uint64_t pending = 0, timers = 0, qmax = 0;
    for (unsigned i = 0; i < net.shards(); ++i) {
      pending += net.simulator(i).pending_events();
      timers += net.simulator(i).timers().armed_count();
    }
    for (const net::Link* l : net.links()) {
      qmax = std::max<std::uint64_t>(qmax, l->queue().len_pkts());
    }
    g.pending_max = std::max(g.pending_max, pending);
    g.timers_max = std::max(g.timers_max, timers);
    g.queue_pkts_max = std::max(g.queue_pkts_max, qmax);
    sample_more(g);
    g_tracer.main().push_back({SpanKind::kSlice, t0, t1, ev, pending, timers});
    if (t == end || (net.shards() == 1 && t >= quiet_after && pending == 0)) break;
  }
  return events;
}

/// Traced-pass fields. The library's self time is the slices minus their
/// top-level children: send and callback spans, or only callback spans when
/// every send inside a slice is made from a completion callback.
void put_trace(Json& j, const Gauges& g, bool sends_nest_in_callbacks) {
  const auto [send_s, sends] = g_tracer.total(SpanKind::kSend);
  const auto [cb_s, cbs] = g_tracer.total(SpanKind::kCallback);
  const auto [slice_s, slices] = g_tracer.total(SpanKind::kSlice);
  j.num("slices", static_cast<double>(slices));
  j.num("send_calls", static_cast<double>(sends)).num("send_s", send_s);
  j.num("callback_calls", static_cast<double>(cbs)).num("callback_s", cb_s);
  j.num("lib_self_s", slice_s - cb_s - (sends_nest_in_callbacks ? 0 : send_s));
  j.num("pending_max", static_cast<double>(g.pending_max));
  j.num("timers_armed_max", static_cast<double>(g.timers_max));
  j.num("queue_pkts_max", static_cast<double>(g.queue_pkts_max));
  j.num("pins_max", static_cast<double>(g.pins_max));
  j.num("outstanding_max", static_cast<double>(g.outstanding_max));
}

// ------------------------------------------------------- fat-tree bursts

struct FabricSpec {
  int k;
  int msgs_per_host;
  int perms;              ///< message m of a host goes to its peer in permutation m % perms
  scenario::Forwarding fwd;
  unsigned shards;
  bool bulk;              ///< add the tenant-isolation fluid bulk transfers
  sim::SimTime end;       ///< fixed simulated end of the run
  sim::SimTime slice;     ///< traced runs advance in slices of this length
};

FabricSpec fabric_spec(const Options& o) {
  using scenario::Forwarding;
  if (o.workload == "k8_burst") {
    return o.small ? FabricSpec{4, 48, 4, Forwarding::kEcmp, 1, false, 20_ms, 20_us}
                   : FabricSpec{8, 400, 16, Forwarding::kEcmp, 1, false, 200_ms, 20_us};
  }
  if (o.workload == "k16_msgaware") {
    return o.small ? FabricSpec{8, 8, 4, Forwarding::kMessageAware, 1, false, 20_ms, 20_us}
                   : FabricSpec{16, 32, 4, Forwarding::kMessageAware, 1, false, 20_ms, 20_us};
  }
  if (o.workload == "k32_hybrid") {
    return o.small ? FabricSpec{8, 2, 2, Forwarding::kEcmp, 1, true, 50_ms, 10_us}
                   : FabricSpec{32, 2, 2, Forwarding::kEcmp, 1, true, 50_ms, 10_us};
  }
  throw std::invalid_argument("unknown workload: " + o.workload);
}

constexpr std::uint32_t kMsgBytes = 10'000;
constexpr proto::PortNum kPort = 80;

/// One foreground message of a fabric workload.
struct FabricMsg {
  sim::SimTime at;
  std::uint32_t dst = 0;  ///< destination host index
  std::uint32_t bytes = 0;
  proto::MsgId id = 0;
  std::int64_t fct_ns = -1;
  std::uint32_t done = 0;  ///< sender-side completions seen
};

struct Delivery {
  net::NodeId src;
  proto::MsgId id;
  std::int64_t bytes;
};

/// Generated inputs: `perms` seeded permutations without fixed points (in
/// each, every host sends to one peer and receives from one), the arrival
/// schedule, and the per-message records the run fills in.
struct FabricInputs {
  int hosts = 0;
  std::vector<std::uint32_t> peer;  ///< perms x hosts
  workload::ArrivalSchedule sched;
  std::vector<std::vector<FabricMsg>> msgs;  ///< per source host, arrival order
  std::vector<workload::BulkTransfer> bulk;
};

FabricInputs generate_fabric(const FabricSpec& f, std::uint64_t seed) {
  FabricInputs in;
  const int n = f.k * f.k * f.k / 4;
  const int P = f.perms;
  in.hosts = n;
  in.peer.resize(static_cast<std::size_t>(n) * P);
  sim::Rng rng(mix64(seed ^ 0x7065726662656e63ULL));
  for (int p = 0; p < P; ++p) {
    std::uint32_t* peer = &in.peer[static_cast<std::size_t>(p) * n];
    for (int h = 0; h < n; ++h) peer[h] = static_cast<std::uint32_t>(h);
    for (int i = n - 1; i > 0; --i) {
      std::swap(peer[i], peer[rng.uniform_int(0, i)]);
    }
    for (int h = 0; h < n; ++h) {
      if (peer[h] == static_cast<std::uint32_t>(h)) std::swap(peer[h], peer[(h + 1) % n]);
    }
  }
  in.msgs.assign(n, {});
  for (auto& v : in.msgs) v.reserve(f.msgs_per_host);
  for (int m = 0; m < f.msgs_per_host; ++m) {
    const sim::SimTime at = sim::SimTime::nanoseconds(1 + m * 10'000 / f.msgs_per_host);
    const std::uint32_t* peer = &in.peer[static_cast<std::size_t>(m % P) * n];
    for (int h = 0; h < n; ++h) {
      in.sched.add(at, static_cast<std::uint32_t>(h), kMsgBytes);
      in.msgs[h].push_back({at, peer[h], kMsgBytes});
    }
  }
  if (f.bulk) {
    // The tenant-isolation background: one 4 MB transfer per 8 hosts, capped
    // at 20 Gbps, to the host half a fabric away.
    for (int i = 0; i < n / 8; ++i) {
      in.bulk.push_back({.at = sim::SimTime::nanoseconds(1 + i * 200),
                         .src = static_cast<std::uint32_t>(i * 8),
                         .dst = static_cast<std::uint32_t>((i * 8 + n / 2) % n),
                         .bytes = 4'000'000,
                         .rate_cap_bps = 20'000'000'000LL});
    }
  }
  return in;
}

int run_fabric(const Options& o) {
  FabricSpec f = fabric_spec(o);
  if (o.shards) f.shards = o.shards;
  if (o.no_bulk) f.bulk = false;

  // --- setup, repeated; the last build is the one that runs.
  std::vector<double> setup_s, gen_s, topo_s, fleet_s;
  std::unique_ptr<scenario::Scenario> s;
  FabricInputs in;
  if (g_tracer.on()) g_tracer.reset(f.shards);
  for (int rep = 0; rep < o.setups; ++rep) {
    s.reset();
    in = FabricInputs{};
    malloc_trim(0);
    const std::int64_t t0 = now_ns();
    in = generate_fabric(f, o.seed);
    const std::int64_t t1 = now_ns();
    std::int64_t topo_ns = 0;
    scenario::ScenarioBuilder b;
    b.seed(o.seed)
        .shards(f.shards)
        .topology(timed(scenario::topo::fat_tree({.k = f.k}), &topo_ns))
        .forwarding(f.fwd)
        .transport("mtp")
        .workload(in.sched);
    if (f.bulk) b.bulk_transfers(in.bulk).bulk_mode(scenario::BulkMode::kFlowLevel);
    s = b.build();
    const std::int64_t t2 = now_ns();
    if (g_tracer.on()) {
      g_tracer.main().push_back({SpanKind::kGen, t0, t1});
      g_tracer.main().push_back({SpanKind::kBuild, t1, t2});
    }
    setup_s.push_back(secs(t2 - t0));
    gen_s.push_back(secs(t1 - t0));
    topo_s.push_back(secs(topo_ns));
    fleet_s.push_back(secs(t2 - t1 - topo_ns));
  }
  const double mem_after_build = rss_mb();

  // --- wiring: sender handler and receiver-side delivery logs.
  const int n = in.hosts;
  scenario::Scenario* sp = s.get();
  std::vector<core::MtpEndpoint*> eps(n);
  std::vector<net::NodeId> node_of(n);
  std::vector<unsigned> shard_of(n);
  for (int h = 0; h < n; ++h) {
    eps[h] = sp->mtp_sender(h);
    node_of[h] = sp->topo().senders[h]->id();
    shard_of[h] = sp->network().shard_of(*sp->topo().senders[h]);
  }
  std::vector<std::vector<Delivery>> rx(n);
  for (int h = 0; h < n; ++h) rx[h].reserve(f.msgs_per_host + 64);
  for (int h = 0; h < n; ++h) {
    eps[h]->listen(kPort, [&rx, h](const core::ReceivedMessage& m) {
      rx[h].push_back({m.src, m.msg_id, m.bytes});
    });
  }
  std::vector<std::size_t> next(n, 0);
  const bool traced = g_tracer.on();
  s->set_arrival_handler([&](const workload::ArrivalSchedule::Arrival& a) {
    const std::uint32_t h = a.src;
    FabricMsg& m = in.msgs[h][next[h]++];
    if (!traced) {
      m.id = eps[h]->send_message(node_of[m.dst], a.bytes, {.dst_port = kPort},
                                  [&m](proto::MsgId, sim::SimTime fct) {
                                    ++m.done;
                                    m.fct_ns = fct.ns();
                                  });
      return;
    }
    std::vector<Span>& lane = g_tracer.lane(shard_of[h]);
    const std::int64_t t0 = now_ns();
    m.id = eps[h]->send_message(node_of[m.dst], a.bytes, {.dst_port = kPort},
                                [&m, &lane, h](proto::MsgId, sim::SimTime fct) {
                                  const std::int64_t c0 = now_ns();
                                  ++m.done;
                                  m.fct_ns = fct.ns();
                                  lane.push_back({SpanKind::kCallback, c0, now_ns(), h});
                                });
    lane.push_back({SpanKind::kSend, t0, now_ns(), h});
  });

  // --- run.
  net::Network& net = sp->network();
  Gauges g;
  const std::int64_t r0 = now_ns();
  const std::uint64_t events = run_to(*s, f.end, f.slice, 0_us, g, [&](Gauges& gg) {
    for (net::Switch* sw : sp->topo().lb_switches) {
      if (auto* p = dynamic_cast<net::MessageAwarePolicy*>(sw->policy())) {
        gg.pins_max = std::max<std::uint64_t>(gg.pins_max, p->pinned_messages());
      }
    }
    std::uint64_t outstanding = 0;
    for (const core::MtpEndpoint* ep : eps) outstanding += ep->outstanding_messages();
    gg.outstanding_max = std::max(gg.outstanding_max, outstanding);
  });
  const double run_s = secs(now_ns() - r0);

  // --- checks: every message completed exactly once at the sender and was
  // delivered exactly once, with its own byte count, at its peer.
  Outcome out;
  std::unordered_map<std::uint64_t, FabricMsg*> by_id;
  by_id.reserve(static_cast<std::size_t>(n) * f.msgs_per_host);
  for (int h = 0; h < n; ++h) {
    for (FabricMsg& m : in.msgs[h]) by_id.emplace(mix64(node_of[h]) ^ m.id, &m);
  }
  std::unordered_map<const FabricMsg*, std::uint32_t> delivered;
  bool rx_ok = true;
  for (int d = 0; d < n; ++d) {
    for (const Delivery& dl : rx[d]) {
      const auto it = by_id.find(mix64(dl.src) ^ dl.id);
      if (it == by_id.end() || it->second->bytes != dl.bytes ||
          it->second->dst != static_cast<std::uint32_t>(d)) {
        rx_ok = false;
        continue;
      }
      ++delivered[it->second];
    }
  }
  std::int64_t first_ns = INT64_MAX, last_ns = 0;
  std::uint64_t good_bytes = 0;
  std::uint64_t d = 0x6d74702d62656e63ULL;
  for (int h = 0; h < n; ++h) {
    for (std::size_t k = 0; k < in.msgs[h].size(); ++k) {
      const FabricMsg& m = in.msgs[h][k];
      ++out.offered;
      const auto it = delivered.find(&m);
      const bool ok = m.done == 1 && it != delivered.end() && it->second == 1;
      d = mix64(d ^ mix64((std::uint64_t(h) << 32) | k) ^
                (static_cast<std::uint64_t>(m.fct_ns) * 0x9e3779b97f4a7c15ULL) ^ m.bytes);
      if (!ok) continue;
      ++out.ok;
      out.fct_us.push_back(static_cast<double>(m.fct_ns) / 1e3);
      first_ns = std::min(first_ns, m.at.ns());
      last_ns = std::max(last_ns, m.at.ns() + m.fct_ns);
      good_bytes += m.bytes;
    }
  }
  if (!rx_ok) out.ok = 0;
  const auto bulk_done = sp->bulk_completions();
  for (const auto& [idx, at] : bulk_done) {
    d = mix64(d ^ (std::uint64_t{idx} << 40) ^ static_cast<std::uint64_t>(at.ns()));
  }
  out.digest = d;
  if (last_ns > first_ns) {
    out.goodput_gbps = static_cast<double>(good_bytes) * 8.0 / static_cast<double>(last_ns - first_ns);
  }

  // --- counters, read after the timed run.
  const telemetry::RegistrySnapshot snap = sp->snapshot();
  std::uint64_t pkt_hops = 0;
  for (const net::Link* l : net.links()) pkt_hops += l->stats().pkts_delivered;
  std::vector<double> shard_events;
  for (unsigned i = 0; i < net.shards(); ++i) {
    shard_events.push_back(static_cast<double>(net.simulator(i).events_executed()));
  }
  const transport::TransportMetrics tm = sp->transport_metrics();
  const sim::flow::FluidModel* fm = sp->flow_model(0);

  Json j;
  j.str("workload", o.workload).num("seed", static_cast<double>(o.seed));
  j.num("shards", f.shards).num("traced", traced ? 1 : 0);
  j.num("setup_s", median(setup_s)).num("gen_s", median(gen_s));
  j.num("topology_s", median(topo_s)).num("fleet_s", median(fleet_s));
  j.num("mem_after_build_mb", mem_after_build);
  j.num("run_s", run_s);
  j.num("events", static_cast<double>(events));
  j.num("windows", static_cast<double>(sp->windows()));
  j.num("shard_events_max", *std::max_element(shard_events.begin(), shard_events.end()));
  double sum = 0;
  for (double e : shard_events) sum += e;
  j.num("shard_events_mean", sum / static_cast<double>(shard_events.size()));
  put_outcome(j, out);
  j.num("bulk_count", static_cast<double>(in.bulk.size()));
  j.num("bulk_completed", static_cast<double>(bulk_done.size()));
  j.num("flow_resolves", fm ? static_cast<double>(fm->resolves()) : 0);
  j.num("flow_events", fm ? static_cast<double>(fm->events_scheduled()) : 0);
  j.num("flow_violations", fm ? static_cast<double>(fm->violations()) : 0);
  j.num("pkt_hops", static_cast<double>(pkt_hops));
  j.num("queue_drops", snap.total("queue", "dropped"));
  j.num("ecn_marks", snap.total("queue", "ecn_marked"));
  j.num("no_route_drops", snap.total("switch", "no_route_drops"));
  j.num("mtp_pkts_sent", static_cast<double>(tm.pkts_sent));
  j.num("mtp_retx", static_cast<double>(tm.retransmits));
  j.num("mtp_acks_sent", snap.total("mtp", "acks_sent"));
  if (traced) put_trace(j, g, /*sends_nest_in_callbacks=*/false);
  j.num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", j.done().c_str());
  std::fflush(stdout);
  if (traced && !o.trace_out.empty() && !g_tracer.write(o.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  // Skip teardown: unregistering ~10^5 metric providers one by one is
  // quadratic, and nothing after this point is measured.
  std::_Exit(0);
}

// -------------------------------------------------------------- zoo incast

/// One closed-loop message of the zoo workload.
struct ZooMsg {
  sim::SimTime at;
  std::int64_t bytes = 0;
  std::int64_t got = -1;  ///< byte count the transport reported
  std::int64_t fct_ns = -1;
  std::uint32_t done = 0;
};

int run_zoo(const Options& o) {
  constexpr int kSenders = 16;
  const sim::SimTime span = o.small ? 2_ms : 40_ms;  // senders stop starting messages
  const sim::SimTime end = span + (o.small ? 50_ms : 100_ms);  // drain bound
  const bool traced = g_tracer.on();

  Json j;
  j.str("workload", o.workload).num("seed", static_cast<double>(o.seed));
  j.num("shards", 1).num("traced", traced ? 1 : 0);

  Outcome all;
  std::vector<double> setup_total(o.setups, 0.0);
  double gen_total = 0, topo_total = 0, fleet_total = 0, run_total = 0;
  double mem_after_build = 0;
  std::uint64_t events_total = 0;
  std::uint64_t pkt_hops = 0, qdrops = 0, ecn = 0, no_route = 0;
  Gauges g;
  double sum_bytes = 0, sum_span_ns = 0;
  std::uint64_t d = 0x7a6f6f2d62656e63ULL;

  for (const char* tname : {"mtp", "dctcp", "homa", "mptcp"}) {
    malloc_trim(0);
    const double rss0 = rss_mb();
    std::unique_ptr<scenario::Scenario> s;
    std::vector<std::vector<ZooMsg>> msgs;
    std::vector<sim::Rng> rngs;
    for (int rep = 0; rep < o.setups; ++rep) {
      s.reset();
      const std::int64_t t0 = now_ns();
      // Inputs: per-sender size streams from a seeded bounded Pareto over
      // [1 KB, 64 KB] (shape 1.2, so most messages are 1-2 packets).
      rngs.clear();
      for (int i = 0; i < kSenders; ++i) {
        rngs.emplace_back(mix64(o.seed * 0x100000001b3ULL + static_cast<std::uint64_t>(i)));
      }
      msgs.assign(kSenders, {});
      for (auto& v : msgs) v.reserve(o.small ? 256 : 8192);
      const std::int64_t t1 = now_ns();
      std::int64_t topo_ns = 0;
      s = scenario::ScenarioBuilder()
              .seed(o.seed)
              .topology(timed(scenario::topo::incast(kSenders), &topo_ns))
              .transport(tname)
              .build();
      const std::int64_t t2 = now_ns();
      if (traced) {
        g_tracer.main().push_back({SpanKind::kGen, t0, t1});
        g_tracer.main().push_back({SpanKind::kBuild, t1, t2});
      }
      setup_total[rep] += secs(t2 - t0);
      if (rep + 1 == o.setups) {
        gen_total += secs(t1 - t0);
        topo_total += secs(topo_ns);
        fleet_total += secs(t2 - t1 - topo_ns);
      }
    }

    mem_after_build = std::max(mem_after_build, rss_mb());
    const workload::SizeDist sizes = workload::SizeDist::bounded_pareto(1'000, 64'000, 1.2);
    scenario::Scenario* sp = s.get();
    sim::Simulator& simr = sp->simulator();
    std::function<void(int)> send_next = [&](int i) {
      if (simr.now() >= span) return;
      std::vector<ZooMsg>& v = msgs[i];
      v.push_back({simr.now(), sizes.sample(rngs[i])});
      const std::size_t k = v.size() - 1;
      auto done = [&, i, k](sim::SimTime fct, std::int64_t got) {
        const std::int64_t c0 = traced ? now_ns() : 0;
        ZooMsg& m = msgs[i][k];
        ++m.done;
        m.fct_ns = fct.ns();
        m.got = got;
        if (traced) g_tracer.lane(0).push_back({SpanKind::kCallback, c0, now_ns(), std::uint64_t(i)});
        send_next(i);
      };
      const std::int64_t t0 = traced ? now_ns() : 0;
      sp->sender(i).send_message(v[k].bytes, std::move(done));
      if (traced) g_tracer.lane(0).push_back({SpanKind::kSend, t0, now_ns(), std::uint64_t(i)});
    };

    const std::int64_t r0 = now_ns();
    for (int i = 0; i < kSenders; ++i) send_next(i);
    const std::uint64_t events = run_to(*s, end, 1_ms, span, g, [](Gauges&) {});
    const double run_s = secs(now_ns() - r0);
    run_total += run_s;
    events_total += events;

    // Checks and per-transport results.
    std::vector<double> fct_us;
    std::int64_t first_ns = INT64_MAX, last_ns = 0;
    double bytes = 0;
    std::uint64_t offered = 0, ok = 0;
    for (int i = 0; i < kSenders; ++i) {
      for (std::size_t k = 0; k < msgs[i].size(); ++k) {
        const ZooMsg& m = msgs[i][k];
        ++offered;
        d = mix64(d ^ mix64((std::uint64_t(i) << 32) | k) ^
                  (static_cast<std::uint64_t>(m.fct_ns) * 0x9e3779b97f4a7c15ULL) ^
                  static_cast<std::uint64_t>(m.bytes));
        if (m.done != 1 || m.got != m.bytes) continue;
        ++ok;
        fct_us.push_back(static_cast<double>(m.fct_ns) / 1e3);
        first_ns = std::min(first_ns, m.at.ns());
        last_ns = std::max(last_ns, m.at.ns() + m.fct_ns);
        bytes += static_cast<double>(m.bytes);
      }
    }
    all.offered += offered;
    all.ok += ok;
    all.fct_us.insert(all.fct_us.end(), fct_us.begin(), fct_us.end());
    if (last_ns > first_ns) {
      sum_bytes += bytes;
      sum_span_ns += static_cast<double>(last_ns - first_ns);
    }
    const telemetry::RegistrySnapshot snap = sp->snapshot();
    for (const net::Link* l : sp->network().links()) pkt_hops += l->stats().pkts_delivered;
    qdrops += static_cast<std::uint64_t>(snap.total("queue", "dropped"));
    ecn += static_cast<std::uint64_t>(snap.total("queue", "ecn_marked"));
    no_route += static_cast<std::uint64_t>(snap.total("switch", "no_route_drops"));
    const transport::TransportMetrics tm = sp->transport_metrics();
    const std::string p = std::string("transport.") + tname + ".";
    j.num(p + "run_s", run_s);
    j.num(p + "msgs", static_cast<double>(ok));
    j.num(p + "retransmits", static_cast<double>(tm.retransmits));
    j.num(p + "timeouts", static_cast<double>(tm.timeouts));
    j.num(p + "grants", static_cast<double>(tm.grants_issued));
    j.num(p + "fct_p999_us", fct_us.empty() ? 0 : stats::percentile(fct_us, 99.9));
    j.num(p + "rss_growth_mb", rss_mb() - rss0);
    if (std::string_view(tname) == "mtp") {
      j.num("mtp_pkts_sent", static_cast<double>(tm.pkts_sent));
      j.num("mtp_retx", static_cast<double>(tm.retransmits));
      j.num("mtp_acks_sent", snap.total("mtp", "acks_sent"));
    }
  }
  all.digest = d;
  if (sum_span_ns > 0) all.goodput_gbps = sum_bytes * 8.0 / sum_span_ns;

  j.num("setup_s", median(setup_total)).num("gen_s", gen_total);
  j.num("topology_s", topo_total).num("fleet_s", fleet_total);
  j.num("mem_after_build_mb", mem_after_build);
  j.num("run_s", run_total);
  j.num("events", static_cast<double>(events_total));
  j.num("windows", 0).num("shard_events_max", static_cast<double>(events_total));
  j.num("shard_events_mean", static_cast<double>(events_total));
  put_outcome(j, all);
  j.num("bulk_count", 0).num("bulk_completed", 0);
  j.num("flow_resolves", 0).num("flow_events", 0).num("flow_violations", 0);
  j.num("pkt_hops", static_cast<double>(pkt_hops));
  j.num("queue_drops", static_cast<double>(qdrops));
  j.num("ecn_marks", static_cast<double>(ecn));
  j.num("no_route_drops", static_cast<double>(no_route));
  // Closed loop: every send after the first runs inside a completion callback.
  if (traced) put_trace(j, g, /*sends_nest_in_callbacks=*/true);
  j.num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", j.done().c_str());
  std::fflush(stdout);
  if (traced && !o.trace_out.empty() && !g_tracer.write(o.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view a(argv[i]);
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(std::string(a) + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--mode") {
        const std::string m = value();
        if (m != "plain" && m != "traced") throw std::invalid_argument("--mode plain|traced");
        o.traced = m == "traced";
      } else if (a == "--no-bulk") o.no_bulk = true;
      else if (a == "--small") o.small = true;
      else if (a == "--shards") o.shards = static_cast<unsigned>(std::stoul(value()));
      else if (a == "--setups") o.setups = std::max(1, std::stoi(value()));
      else if (a == "--trace-out") o.trace_out = value();
      else throw std::invalid_argument("unknown argument " + std::string(a));
    }
    if (o.traced) g_tracer.reset(1);
    if (o.workload == "zoo_incast") return run_zoo(o);
    return run_fabric(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
