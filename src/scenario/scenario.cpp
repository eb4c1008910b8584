#include "scenario/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "net/fat_tree.hpp"
#include "net/forwarding.hpp"

namespace mtp::scenario {

namespace {

/// Destination port shared by every paced bulk datagram; the transfer index
/// rides in the source port.
constexpr proto::PortNum kBulkUdpPort = 21930;

using sim::mix64;

/// Static hop-by-hop walk src -> dst through the forwarding tables, picking
/// among multipath candidates by a hash of the transfer index (an ECMP-style
/// pin). Purely a function of topology + index, so every fluid replica
/// computes the identical path. Returns link indices into Network::links().
std::vector<std::uint32_t> walk_path(const std::unordered_map<const net::Link*, std::uint32_t>& index_of,
                                     net::Host* src, net::Host* dst, std::uint32_t transfer) {
  std::vector<std::uint32_t> path;
  net::Node* node = src;
  const net::NodeId dst_id = dst->id();
  for (int hop = 0; hop < 64; ++hop) {
    net::Link* link = nullptr;
    if (node == src) {
      link = src->out_port(0);  // hosts are single-homed in every canned topology
    } else {
      auto* sw = dynamic_cast<net::Switch*>(node);
      if (!sw) throw std::logic_error("bulk_transfer path hit a non-switch transit node");
      const std::span<const net::PortIndex> cand = sw->route_candidates(dst_id);
      if (cand.empty()) throw std::logic_error("bulk_transfer path: no route at " + sw->name());
      const net::PortIndex port =
          cand[mix64(transfer * 0x9e3779b9ULL + hop) % cand.size()];
      link = sw->out_port(port);
    }
    const auto it = index_of.find(link);
    if (it == index_of.end()) throw std::logic_error("bulk_transfer path: unknown link");
    path.push_back(it->second);
    node = link->peer();
    if (node->id() == dst_id) return path;
  }
  throw std::logic_error("bulk_transfer path: no route from " + src->name() + " to " +
                         dst->name());
}

std::unique_ptr<net::ForwardingPolicy> make_policy(Forwarding f, sim::SimTime period) {
  switch (f) {
    case Forwarding::kStatic:
      return nullptr;
    case Forwarding::kEcmp:
      return std::make_unique<net::EcmpPolicy>();
    case Forwarding::kSpray:
      return std::make_unique<net::SprayPolicy>();
    case Forwarding::kMessageAware:
      return std::make_unique<net::MessageAwarePolicy>();
    case Forwarding::kAlternating:
      return std::make_unique<net::AlternatingPathPolicy>(period);
  }
  return nullptr;
}

}  // namespace

namespace topo {

TopologyFn two_path_flip(sim::Bandwidth fast_bw, sim::Bandwidth slow_bw) {
  return [=](net::Network& net) {
    const net::DropTailQueue::Config q{.capacity_pkts = 128, .ecn_threshold_pkts = 20};
    Topology t;
    net::Host* sender = net.add_host("sender");
    net::Host* receiver = net.add_host("receiver");
    net::Switch* sw = net.add_switch("sw");
    net.connect(*sender, *sw, sim::Bandwidth::gbps(100), 1_us, q);
    net::Link* fast = net.connect_simplex(*sw, *receiver, fast_bw, 1_us,
                                          std::make_unique<net::DropTailQueue>(q));
    net::Link* slow = net.connect_simplex(*sw, *receiver, slow_bw, 1_us,
                                          std::make_unique<net::DropTailQueue>(q));
    net.connect_simplex(*receiver, *sw, sim::Bandwidth::gbps(100), 1_us,
                        std::make_unique<net::DropTailQueue>(q));
    net.build_routes();  // receiver: [fast, slow]
    t.senders = {sender};
    t.receiver = receiver;
    t.lb_switches = {sw};
    t.paths = {fast, slow};
    t.fault_links = {fast, slow};
    return t;
  };
}

TopologyFn dual_path(int senders) {
  return [=](net::Network& net) {
    const net::DropTailQueue::Config q{.capacity_pkts = 256, .ecn_threshold_pkts = 40};
    Topology t;
    // Node creation order is part of the recorded experiment: NodeIds feed
    // forwarding hashes, so senders get ids 0..n-1, the receiver n, the
    // switch n+1 (the order the original Fig 6 rig used).
    for (int i = 0; i < senders; ++i) {
      t.senders.push_back(net.add_host("snd" + std::to_string(i)));
    }
    net::Host* rcv = net.add_host("rcv");
    net::Switch* sw = net.add_switch("lb");
    for (int i = 0; i < senders; ++i) {
      net.connect(*t.senders[i], *sw, sim::Bandwidth::gbps(100), 1_us, q);
    }
    net::Link* path_a = net.connect_simplex(*sw, *rcv, sim::Bandwidth::gbps(100), 1_us,
                                            std::make_unique<net::DropTailQueue>(q));
    net::Link* path_b = net.connect_simplex(*sw, *rcv, sim::Bandwidth::gbps(100), 2_us,
                                            std::make_unique<net::DropTailQueue>(q));
    net.connect_simplex(*rcv, *sw, sim::Bandwidth::gbps(100), 1_us,
                        std::make_unique<net::DropTailQueue>(q));
    net.build_routes();
    t.receiver = rcv;
    t.lb_switches = {sw};
    t.paths = {path_a, path_b};
    t.fault_links = {path_a, path_b};
    return t;
  };
}

TopologyFn dual_hop_fabric() {
  return [](net::Network& net) {
    const net::DropTailQueue::Config q{.capacity_pkts = 256, .ecn_threshold_pkts = 40};
    const sim::SimTime d = 2_us;
    Topology t;
    net::Host* snd = net.add_host("snd");
    net::Host* rcv = net.add_host("rcv");
    net::Switch* sw1 = net.add_switch("sw1");
    net::Switch* swa = net.add_switch("swA");
    net::Switch* swb = net.add_switch("swB");
    net::Switch* sw2 = net.add_switch("sw2");
    net.connect(*snd, *sw1, sim::Bandwidth::gbps(100), d, q);
    auto a_up = net.connect(*sw1, *swa, sim::Bandwidth::gbps(25), d, q);
    auto b_up = net.connect(*sw1, *swb, sim::Bandwidth::gbps(25), d, q);
    net.connect(*swa, *sw2, sim::Bandwidth::gbps(25), d, q);
    net.connect(*swb, *sw2, sim::Bandwidth::gbps(25), d, q);
    net.connect(*sw2, *rcv, sim::Bandwidth::gbps(100), d, q);
    // Pathlets on the two first-hop choices: what MTP learns and excludes.
    a_up.forward->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});
    b_up.forward->set_pathlet({.id = 2, .feedback = proto::FeedbackType::kEcn});
    net.build_routes();  // sw1, sw2 up: [swA, swB]; the static policy picks swA
    t.senders = {snd};
    t.receiver = rcv;
    t.lb_switches = {sw1, sw2};
    t.fault_links = {a_up.forward, b_up.forward};
    t.paths = {a_up.forward, b_up.forward};
    return t;
  };
}

TopologyFn shared_bottleneck(std::function<std::unique_ptr<net::Queue>()> make_queue) {
  return [make_queue = std::move(make_queue)](net::Network& net) {
    const net::DropTailQueue::Config q{.capacity_pkts = 256, .ecn_threshold_pkts = 40};
    Topology t;
    net::Host* t1 = net.add_host("tenant1");
    net::Host* t2 = net.add_host("tenant2");
    net::Host* rcv = net.add_host("rcv");
    net::Switch* sw = net.add_switch("sw");
    net.connect(*t1, *sw, sim::Bandwidth::gbps(100), 1_us, q);
    net.connect(*t2, *sw, sim::Bandwidth::gbps(100), 1_us, q);
    net::Link* bottleneck = net.connect_simplex(
        *sw, *rcv, sim::Bandwidth::gbps(100), 10_us,
        make_queue ? make_queue() : std::make_unique<net::DropTailQueue>(q));
    net.connect_simplex(*rcv, *sw, sim::Bandwidth::gbps(100), 10_us,
                        std::make_unique<net::DropTailQueue>(q));
    net.build_routes();
    t.senders = {t1, t2};
    t.receiver = rcv;
    t.lb_switches = {sw};
    t.paths = {bottleneck};
    t.fault_links = {bottleneck};
    return t;
  };
}

TopologyFn incast(int senders) {
  return [=](net::Network& net) {
    const net::DropTailQueue::Config q{.capacity_pkts = 128, .ecn_threshold_pkts = 20};
    Topology t;
    net::Switch* sw = net.add_switch("sw");
    net::Host* rcv = net.add_host("recv");
    for (int i = 0; i < senders; ++i) {
      net::Host* h = net.add_host("h" + std::to_string(i));
      t.senders.push_back(h);
      net.connect(*h, *sw, sim::Bandwidth::gbps(100), 1_us, q);
    }
    auto down = net.connect(*sw, *rcv, sim::Bandwidth::gbps(100), 1_us, q);
    net.build_routes();
    t.receiver = rcv;
    t.lb_switches = {sw};
    t.paths = {down.forward};
    t.fault_links = {down.forward};
    return t;
  };
}

TopologyFn fat_tree(net::FatTree::Config cfg) {
  return [cfg](net::Network& net) {
    Topology t;
    auto ft = std::make_shared<net::FatTree>(net, cfg);
    t.senders = ft->hosts();
    for (int p = 0; p < ft->k(); ++p) {
      for (int i = 0; i < ft->k() / 2; ++i) {
        t.lb_switches.push_back(ft->edge(p, i));
        t.lb_switches.push_back(ft->agg(p, i));
      }
    }
    t.fault_links = {ft->edge_uplink(0, 0, 0)};
    t.keepalive = std::move(ft);
    return t;
  };
}

}  // namespace topo

Scenario::Scenario() = default;
Scenario::~Scenario() = default;

net::Host* Scenario::bulk_host(std::uint32_t idx) const {
  if (idx == kBulkToReceiver) {
    if (!topo_.receiver) throw std::logic_error("bulk_transfer: topology has no receiver");
    return topo_.receiver;
  }
  return topo_.senders.at(idx);
}

std::unique_ptr<Scenario> ScenarioBuilder::build() {
  if (forwarding_ == Forwarding::kAlternating && alternating_period_ <= 0_us) {
    throw std::invalid_argument(
        "ScenarioBuilder: Forwarding::kAlternating needs a positive alternating_period");
  }
  auto s = std::unique_ptr<Scenario>(new Scenario());
  s->net_ = std::make_unique<net::Network>(seed_, shards_);
  s->topo_ = topo_fn_(*s->net_);
  for (const Flap& f : flaps_) {
    if (f.link >= s->topo_.fault_links.size()) {
      throw std::invalid_argument("ScenarioBuilder: flap() link " + std::to_string(f.link) +
                                  " is out of range; the topology has " +
                                  std::to_string(s->topo_.fault_links.size()) +
                                  " fault_links");
    }
  }
  s->dst_port_ = dst_port_;
  s->bulk_bytes_ = bulk_bytes_;
  s->bulk_mode_ = bulk_mode_;
  s->bulk_transfers_ = bulk_transfers_;
  s->schedule_ = std::move(schedule_);

  for (net::Switch* sw : s->topo_.lb_switches) {
    if (auto p = make_policy(forwarding_, alternating_period_)) sw->set_policy(std::move(p));
  }
  if (goodput_window_ > 0_us) {
    s->meter_ = std::make_unique<stats::ThroughputMeter>(goodput_window_);
  }

  net::Host* rcv = s->topo_.receiver;

  // Resolve the transport by name. The fleet builds every sender-side
  // endpoint/stack (in sender order — creation order is part of the recorded
  // experiment) plus the receiver-side sink and wires the goodput meter.
  transport::TransportBuildContext tctx;
  tctx.net = s->net_.get();
  tctx.senders = s->topo_.senders;
  tctx.receiver = rcv;
  tctx.dst_port = dst_port_;
  tctx.sender_tcs = sender_tcs_;
  tctx.meter = s->meter_.get();
  s->fleet_ = transport::make_fleet(transport_, tctx, mtp_cfg_);

  if (stream_on_) {
    if (!rcv) {
      throw std::logic_error("Scenario: stream_workload needs a receiver topology");
    }
    if (!s->mtp_receiver()) {
      throw std::logic_error(
          "Scenario: stream_workload rides MTP endpoints; it requires "
          "transport(\"mtp\"), not \"" + s->fleet_->name() + "\"");
    }
    // The receiver mux's listen() supersedes the fleet's no-op listener.
    s->stream_rcv_ = std::make_unique<stream::StreamMux>(*s->mtp_receiver(),
                                                         dst_port_, stream_cfg_);
    for (std::size_t i = 0; i < s->topo_.senders.size(); ++i) {
      s->stream_muxes_.push_back(std::make_unique<stream::StreamMux>(
          *s->mtp_sender(i), dst_port_, stream_cfg_));
      s->stream_senders_.push_back(
          &s->stream_muxes_.back()->open(rcv->id(), dst_port_));
      s->stream_src_index_[s->topo_.senders[i]->id()] = i;
    }
  }

  if (!flaps_.empty()) {
    s->faults_ = std::make_unique<fault::FaultInjector>(s->net_->simulator(), 1);
    for (const Flap& f : flaps_) {
      s->faults_->flap_link(*s->topo_.fault_links[f.link], f.at, f.duration);
    }
  }
  if (!bulk_transfers_.empty() && bulk_mode_ == BulkMode::kFlowLevel) {
    wire_flow_level(*s);
  }
  s->bulk_done_.assign(s->net_->shards(), {});
  return s;
}

/// Build the fluid model: one replica per shard, each declared the complete
/// experiment (every conduit, flow, flap mirror and optional foreground-load
/// window) so replicas execute identical keyed event sequences on their own
/// simulators. Side effects are installed only on owners: a link's RateFn on
/// the shard that runs the link, a flow's DoneFn on the shard that owns its
/// source host. That replication — not cross-shard messaging — is what keeps
/// rate re-solves deterministic for every shard count.
void ScenarioBuilder::wire_flow_level(Scenario& s) {
  net::Network& net = *s.net_;
  const unsigned S = net.shards();
  const auto& links = net.links();

  std::unordered_map<const net::Link*, std::uint32_t> index_of;
  index_of.reserve(links.size());
  for (std::uint32_t li = 0; li < links.size(); ++li) index_of.emplace(links[li], li);

  s.flow_models_.reserve(S);
  for (unsigned shard = 0; shard < S; ++shard) {
    auto fm = std::make_unique<sim::flow::FluidModel>(net.simulator(shard));
    for (std::uint32_t li = 0; li < links.size(); ++li) {
      sim::flow::FluidModel::RateFn apply;
      if (net.shard_of_link(li) == shard) {
        apply = [link = links[li]](std::int64_t bps) { link->set_fluid_reserved(bps); };
      }
      fm->add_conduit(links[li]->bandwidth().bits_per_sec(), std::move(apply));
    }
    s.flow_models_.push_back(std::move(fm));
  }

  std::vector<std::uint32_t> used_conduits;
  for (std::uint32_t ti = 0; ti < bulk_transfers_.size(); ++ti) {
    const workload::BulkTransfer& t = bulk_transfers_[ti];
    net::Host* src = s.bulk_host(t.src);
    net::Host* dst = s.bulk_host(t.dst);
    const std::vector<std::uint32_t> path = walk_path(index_of, src, dst, ti);
    used_conduits.insert(used_conduits.end(), path.begin(), path.end());
    const unsigned owner = net.shard_of(*src);
    for (unsigned shard = 0; shard < S; ++shard) {
      sim::flow::FluidModel::DoneFn done;
      if (shard == owner) {
        auto* sp = &s;
        done = [sp, shard](std::uint32_t flow, sim::SimTime at) {
          sp->bulk_done_[shard].emplace_back(flow, at);
        };
      }
      s.flow_models_[shard]->add_flow(t.at, path, t.bytes, t.rate_cap_bps,
                                      std::move(done));
    }
  }

  // Scheduled link flaps, declared here at build time, mirror into every
  // replica as capacity events (down -> 0, up -> line rate). Deliberately
  // not a Link::set_up listener: a runtime hook would fire only on the
  // owning shard and desynchronise the replicas.
  for (const Flap& f : flaps_) {
    const net::Link* link = s.topo_.fault_links.at(f.link);
    const auto it = index_of.find(link);
    if (it == index_of.end()) continue;
    for (unsigned shard = 0; shard < S; ++shard) {
      s.flow_models_[shard]->set_capacity_at(f.at, it->second, 0);
      s.flow_models_[shard]->set_capacity_at(f.at + f.duration, it->second,
                                             link->bandwidth().bits_per_sec());
    }
  }

  // Optional reverse coupling: each declared foreground arrival becomes an
  // external-load window (full line rate for the message's serialization
  // time) on its source's uplink, if that uplink carries any fluid flow.
  if (fg_coupling_ && !s.schedule_.empty()) {
    const std::unordered_set<std::uint32_t> used(used_conduits.begin(),
                                                 used_conduits.end());
    for (const auto& a : s.schedule_.arrivals()) {
      net::Link* uplink = s.topo_.senders.at(a.src)->out_port(0);
      const auto it = index_of.find(uplink);
      if (it == index_of.end() || !used.count(it->second)) continue;
      const std::int64_t rate = uplink->bandwidth().bits_per_sec();
      const sim::SimTime end = a.at + uplink->bandwidth().serialization_delay(a.bytes);
      for (unsigned shard = 0; shard < S; ++shard) {
        s.flow_models_[shard]->add_load_at(a.at, it->second, rate);
        s.flow_models_[shard]->add_load_at(end, it->second, -rate);
      }
    }
  }
}

/// Paced CBR sender for one bulk transfer in kPacket mode: a chain of keyed
/// events on the source host's shard, one per MTU-sized datagram, spaced so
/// the *payload* rate equals the transfer's cap (or the uplink line rate when
/// uncapped). Keys live in a private corner of the arrival keyspace
/// (kArrivalKeyBase | bit 45) so they can never collide with KeyedReplay's
/// schedule indices.
struct Scenario::PacedBulk {
  static constexpr std::uint32_t kMtu = 1000;  ///< payload bytes per datagram

  net::Host* src = nullptr;
  net::NodeId dst = net::kInvalidNode;
  sim::Simulator* sim = nullptr;
  std::uint32_t index = 0;
  std::int64_t remaining = 0;
  std::int64_t rate_bps = 0;
  sim::SimTime next;
  std::uint64_t seq = 0;

  void arm() {
    const std::uint64_t key = sim::kArrivalKeyBase | (std::uint64_t{1} << 45) |
                              (std::uint64_t{index} << 25) | (seq & 0x1ffffffULL);
    ++seq;
    sim->schedule_keyed_at(next, key, [this] { fire(); });
  }

  void fire() {
    const std::uint32_t payload =
        remaining < kMtu ? static_cast<std::uint32_t>(remaining) : kMtu;
    net::Packet pkt;
    pkt.src = src->id();
    pkt.dst = dst;
    pkt.payload_bytes = payload;
    pkt.header_bytes = 28;  // 8 B UDP + 20 B IP
    pkt.flow_hash = mix64((std::uint64_t{index} << 32) ^ 0xb01cb01cULL);
    pkt.header = proto::UdpHeader{static_cast<proto::PortNum>(index), kBulkUdpPort,
                                  static_cast<std::uint16_t>(payload)};
    src->send(std::move(pkt));
    remaining -= payload;
    if (remaining > 0) {
      const __int128 gap_ns = (static_cast<__int128>(payload) * 8 * 1'000'000'000 +
                               (rate_bps - 1)) / rate_bps;
      next = next + sim::SimTime::nanoseconds(static_cast<std::int64_t>(gap_ns));
      arm();
    }
  }
};

void Scenario::start_paced_bulk() {
  if (bulk_transfers_.empty() || bulk_mode_ != BulkMode::kPacket) return;
  if (bulk_transfers_.size() > 0xffff) {
    throw std::logic_error(
        "BulkMode::kPacket supports at most 65535 transfers (the transfer index "
        "rides in the UDP source port); use BulkMode::kFlowLevel");
  }
  paced_rx_bytes_.assign(bulk_transfers_.size(), 0);

  // One receive handler per destination host, demuxing on the source port
  // (= transfer index). Runs on the destination's shard thread; each
  // paced_rx_bytes_ slot is only ever touched by its transfer's dst shard.
  std::unordered_set<net::Host*> bound;
  for (const workload::BulkTransfer& t : bulk_transfers_) {
    net::Host* dsth = bulk_host(t.dst);
    if (!bound.insert(dsth).second) continue;
    const unsigned shard = net_->shard_of(*dsth);
    auto* sim = &net_->simulator(shard);
    dsth->set_udp_handler(kBulkUdpPort, [this, shard, sim](net::Packet&& pkt) {
      const std::uint32_t idx = pkt.udp().src_port;
      const std::int64_t before = paced_rx_bytes_[idx];
      const std::int64_t total = bulk_transfers_[idx].bytes;
      paced_rx_bytes_[idx] = before + pkt.payload_bytes;
      if (before < total && paced_rx_bytes_[idx] >= total) {
        bulk_done_[shard].emplace_back(idx, sim->now());
      }
    });
  }

  for (std::uint32_t ti = 0; ti < bulk_transfers_.size(); ++ti) {
    const workload::BulkTransfer& t = bulk_transfers_[ti];
    net::Host* src = bulk_host(t.src);
    if (t.bytes <= 0) {
      // Degenerate transfer: completes at its arrival instant, like the
      // fluid model's zero-byte case.
      net::Host* dsth = bulk_host(t.dst);
      const unsigned shard = net_->shard_of(*dsth);
      net_->simulator(shard).schedule_keyed_at(
          t.at, sim::kArrivalKeyBase | (std::uint64_t{1} << 45) | (std::uint64_t{ti} << 25),
          [this, shard, ti] {
            bulk_done_[shard].emplace_back(ti, net_->simulator(shard).now());
          });
      continue;
    }
    auto pb = std::make_unique<PacedBulk>();
    pb->src = src;
    pb->dst = bulk_host(t.dst)->id();
    pb->sim = &net_->simulator(net_->shard_of(*src));
    pb->index = ti;
    pb->remaining = t.bytes;
    pb->rate_bps = t.rate_cap_bps > 0 ? t.rate_cap_bps
                                      : src->out_port(0)->bandwidth().bits_per_sec();
    pb->next = t.at;
    pb->arm();
    paced_.push_back(std::move(pb));
  }
}

std::vector<std::pair<std::uint32_t, sim::SimTime>> Scenario::bulk_completions() const {
  std::vector<std::pair<std::uint32_t, sim::SimTime>> out;
  for (const auto& v : bulk_done_) out.insert(out.end(), v.begin(), v.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::size_t Scenario::bulk_completed() const {
  std::size_t n = 0;
  for (const auto& v : bulk_done_) n += v.size();
  return n;
}

void Scenario::start() {
  if (started_) return;
  started_ = true;
  for (auto& fm : flow_models_) fm->start();
  start_paced_bulk();
  if (bulk_bytes_ != 0) {
    // A long-lasting flow: message transports send one very large message
    // (endless = 1 GB, which outlives every figure horizon); TCP-family
    // transports keep a bottomless connection open.
    fleet_->sender(0).send_bulk(bulk_bytes_);
  }
  if (!schedule_.empty()) {
    if (fleet_->num_senders() == 0 && !arrival_handler_) {
      throw std::logic_error(
          "Scenario: a workload on a peer-to-peer topology needs set_arrival_handler()");
    }
    const unsigned S = net_->shards();
    fct_samples_.assign(S, {});
    if (stream_rcv_) {
      // Precompute where each record's last byte lands in its sender's
      // stream; the receiver's in-order progress then times completions.
      const std::size_t N = topo_.senders.size();
      record_marks_.assign(N, {});
      record_cursor_.assign(N, 0);
      writes_left_.assign(N, 0);
      std::vector<std::uint64_t> cum(N, 0);
      for (const auto& a : schedule_.arrivals()) {
        cum[a.src] += a.bytes;
        record_marks_[a.src].push_back({a.at, a.bytes, cum[a.src]});
        ++writes_left_[a.src];
      }
      const unsigned rshard = net_->shard_of(*topo_.receiver);
      auto* rsim = &net_->simulator(rshard);
      stream_rcv_->on_progress = [this, rshard, rsim](net::NodeId src, std::uint32_t,
                                                      std::uint64_t bytes) {
        const auto it = stream_src_index_.find(src);
        if (it == stream_src_index_.end()) return;
        auto& cur = record_cursor_[it->second];
        const auto& marks = record_marks_[it->second];
        while (cur < marks.size() && bytes >= marks[cur].cum) {
          fct_samples_[rshard].emplace_back(rsim->now() - marks[cur].at, marks[cur].bytes);
          ++cur;
        }
      };
    }
    replays_.reserve(S);
    for (unsigned shard = 0; shard < S; ++shard) {
      // Each shard replays the sub-schedule of arrivals whose source host it
      // owns; KeyedReplay keys by global schedule index, so the union over
      // shards is the exact serial timeline. S == 1 goes through the same
      // keyed path (empty take = everything) to keep timelines comparable.
      std::function<bool(const workload::ArrivalSchedule::Arrival&)> take;
      if (S > 1) {
        take = [this, shard](const workload::ArrivalSchedule::Arrival& a) {
          return net_->shard_of(*topo_.senders[a.src]) == shard;
        };
      }
      replays_.emplace_back(schedule_, std::move(take));
    }
    // Second pass: start() parks a chained event capturing the replay's
    // address, so every emplace_back (and any reallocation) happens first.
    for (unsigned shard = 0; shard < S; ++shard) {
      replays_[shard].start(
          net_->simulator(shard),
          [this, shard](const workload::ArrivalSchedule::Arrival& a) {
            if (!stream_senders_.empty()) {
              // Runs on the shard owning senders[a.src]; writes_left_[src]
              // has that same single writer.
              stream::Stream& st = *stream_senders_[a.src];
              st.write(a.bytes);
              if (--writes_left_[a.src] == 0) st.finish();
              return;
            }
            if (arrival_handler_) {
              arrival_handler_(a);
              return;
            }
            fleet_->sender(a.src).send_message(
                a.bytes, [this, shard](sim::SimTime fct, std::int64_t bytes) {
                  fct_samples_[shard].emplace_back(fct, bytes);
                });
          });
    }
  }
}

stats::FctRecorder& Scenario::fct() {
  std::size_t total = 0;
  for (const auto& v : fct_samples_) total += v.size();
  if (total != fct_merged_) {
    fct_ = stats::FctRecorder{};
    for (const auto& v : fct_samples_) {
      for (const auto& [t, b] : v) fct_.record(t, b);
    }
    fct_merged_ = total;
  }
  return fct_;
}

std::uint64_t Scenario::fct_digest() const {
  // Commutative fold of the (fct, bytes) samples: shard-grouped ordering
  // cannot change the result, different sample multisets almost surely do.
  std::uint64_t d = 0;
  std::uint64_t n = 0;
  for (const auto& v : fct_samples_) {
    for (const auto& [t, b] : v) {
      d += mix64(static_cast<std::uint64_t>(t.ns()) ^
                 (static_cast<std::uint64_t>(b) * 0x9e3779b97f4a7c15ull));
      ++n;
    }
  }
  return mix64(d ^ (n * 0xbf58476d1ce4e5b9ull));
}

stream::StreamMux::Stats Scenario::stream_stats() const {
  stream::StreamMux::Stats out;
  const auto add = [&out](const stream::StreamMux::Stats& s) {
    out.segments_sent += s.segments_sent;
    out.parity_sent += s.parity_sent;
    out.stream_retx += s.stream_retx;
    out.bytes_submitted += s.bytes_submitted;
    out.segments_received += s.segments_received;
    out.parity_received += s.parity_received;
    out.segments_delivered += s.segments_delivered;
    out.bytes_delivered += s.bytes_delivered;
    out.fec_repairs += s.fec_repairs;
    out.arq_recovered += s.arq_recovered;
    out.dup_segments += s.dup_segments;
    out.reorder_drops += s.reorder_drops;
    out.gap_events += s.gap_events;
    out.feedback_sent += s.feedback_sent;
    out.streams_completed += s.streams_completed;
    out.streams_failed += s.streams_failed;
  };
  for (const auto& m : stream_muxes_) add(m->stats());
  if (stream_rcv_) add(stream_rcv_->stats());
  return out;
}

std::uint64_t Scenario::stream_digest() const {
  sim::RunDigest d(1);
  for (const auto& m : stream_muxes_) d.add(0, m->digest());
  if (stream_rcv_) d.add(0, stream_rcv_->digest());
  return d.value();
}

std::size_t Scenario::replayed() const {
  std::size_t n = 0;
  for (const auto& r : replays_) n += r.replayed();
  return n;
}

namespace {
void check_packet_slots(const net::Network& net) {
  if (const std::size_t off = net.unaccounted_packet_slots(); off != 0) {
    throw std::logic_error("Scenario::run: " + std::to_string(off) +
                           " packet pool slots held by no queue or link");
  }
}
}  // namespace

std::uint64_t Scenario::run(sim::SimTime until) {
  start();
  const std::uint64_t executed = net_->run(until);
  check_packet_slots(*net_);
  return executed;
}

std::uint64_t Scenario::run() {
  start();
  const std::uint64_t executed = net_->run();
  check_packet_slots(*net_);
  return executed;
}

}  // namespace mtp::scenario
