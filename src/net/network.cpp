#include "net/network.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sim/sharded/engine.hpp"

namespace mtp::net {

Network::Network(std::uint64_t seed, unsigned shards) : rng_(seed) {
  if (shards == 0) {
    throw std::invalid_argument("Network: shard count must be >= 1");
  }
  sims_.reserve(shards);
  pools_.reserve(shards);
  arenas_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    sims_.push_back(std::make_unique<sim::Simulator>());
    pools_.push_back(std::make_unique<PacketPool>());
    arenas_.push_back(std::make_unique<sim::Arena>());
  }
  channels_.resize(static_cast<std::size_t>(shards) * shards);
  for (auto& c : channels_) c = std::make_unique<Channel>();
  drain_buf_.resize(shards);
}

Network::~Network() = default;  // out of line: sharded::Engine is incomplete in the header

Link* Network::connect_simplex(Node& a, Node& b, sim::Bandwidth bw, sim::SimTime delay,
                               std::unique_ptr<Queue> queue) {
  const unsigned sa = shard_of(a);
  const unsigned sb = shard_of(b);
  // The link lives where its sender lives: queueing, serialization and fault
  // hooks all run on a's simulator.
  Link* p = arenas_[sa]->make<Link>(*sims_[sa], a.name() + "->" + b.name(), bw, delay,
                                    std::move(queue), pools_[sa].get());
  // Topology-global uid in construction order: identical for every shard
  // count, which keeps keyed delivery ordering — and therefore the whole
  // timeline — independent of the partitioning.
  p->set_uid(next_link_uid_++);
  links_.push_back(p);
  link_shard_.push_back(sa);
  a.add_out_port(p);
  // In-port index on the receiving side: we reuse the count of links that
  // already deliver into b. Receivers only need a stable identifier.
  p->connect_to(b, next_in_port(b));
  if (sa != sb) {
    if (delay <= sim::SimTime::zero()) {
      throw std::invalid_argument(
          "Network::connect_simplex: cross-shard link " + p->name() +
          " needs a positive propagation delay (it bounds the conservative lookahead)");
    }
    min_cross_delay_ = std::min(min_cross_delay_, delay);
    Channel& ch = channel(sa, sb);
    p->set_remote_sink([&ch, p](Packet&& pkt, sim::SimTime at, std::uint64_t key) {
      ch.push(Handoff{std::move(pkt), at, key, p});
    });
  }
  return p;
}

void Network::build_routes() {
  const std::size_t n = nodes_.size();
  const auto peer = [&](const Node* u, std::size_t port) {
    const Node* v = u->out_port(static_cast<PortIndex>(port))->peer();
    if (v->id() < n && nodes_[v->id()] == v) return v->id();
    throw std::invalid_argument("Network::build_routes: " + v->name() + " is not in this network");
  };
  // Links in either direction as adjacency lists: adj[first[u], first[u + 1]).
  std::vector<std::size_t> first(n + 2, 0);
  for (const Node* u : nodes_) {
    first[u->id() + 2] += u->num_out_ports();
    for (std::size_t p = 0; p < u->num_out_ports(); ++p) ++first[peer(u, p) + 2];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<NodeId> adj(first[n + 1]);
  for (const Node* u : nodes_) {
    for (std::size_t p = 0; p < u->num_out_ports(); ++p) {
      adj[first[u->id() + 1]++] = peer(u, p);
      adj[first[peer(u, p) + 1]++] = u->id();
    }
  }

  // Levels: one BFS from every host at once, so `order` is by level.
  constexpr std::uint32_t kUnreached = ~0u;
  std::vector<std::uint32_t> level(n, kUnreached);
  std::vector<NodeId> order;
  for (const Node* u : nodes_) {
    if (!dynamic_cast<const Switch*>(u)) order.push_back(u->id());
  }
  for (const NodeId h : order) level[h] = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t e = first[order[i]]; e < first[order[i] + 1]; ++e) {
      if (level[adj[e]] == kUnreached) {
        level[adj[e]] = level[order[i]] + 1;
        order.push_back(adj[e]);
      }
    }
  }
  if (order.size() < n) {
    const auto lost = std::find(level.begin(), level.end(), kUnreached) - level.begin();
    throw std::invalid_argument("Network::build_routes: no host reaches " + nodes_[lost]->name());
  }

  // Tables, lowest level first. below[begin[u], end[u]) lists what lies below
  // switch u: each down-port peer plus what lies below it (none kept on top).
  std::vector<std::size_t> begin(n, 0), end(n, 0);
  std::vector<NodeId> below, stamp(n, kUnreached);
  std::vector<std::pair<NodeId, PortIndex>> routes;
  for (const NodeId s : order) {
    if (level[s] == 0) continue;
    auto* sw = static_cast<Switch*>(nodes_[s]);
    routes.clear();
    std::vector<PortIndex> up;
    for (PortIndex p = 0; p < sw->num_out_ports(); ++p) {
      const NodeId v = peer(sw, p);
      if (level[v] == level[s]) {
        throw std::invalid_argument("Network::build_routes: equal-level link " + sw->name());
      }
      if (level[v] > level[s]) {
        up.push_back(p);
        continue;
      }
      routes.emplace_back(v, p);
      for (std::size_t i = begin[v]; i < end[v]; ++i) routes.emplace_back(below[i], p);
    }
    sw->set_routes(routes, std::move(up));
    if (level[s] == level[order.back()]) continue;
    begin[s] = below.size();
    for (const auto& route : routes) {
      if (std::exchange(stamp[route.first], s) != s) below.push_back(route.first);
    }
    end[s] = below.size();
  }
}

void Network::drain_into(unsigned shard) {
  std::vector<Handoff>& buf = drain_buf_[shard];
  sim::Simulator& sim = *sims_[shard];
  for (unsigned s = 0; s < shards(); ++s) {
    if (s != shard) channel(s, shard).drain(buf);
  }
  for (Handoff& h : buf) {
    // The delivery becomes a keyed event on the receiving shard — the same
    // (when, key) the sender's Link would have scheduled locally, so the
    // receiver executes it at exactly the serial run's position. deliver_at
    // is >= the window end (lookahead), never in this shard's past.
    const Link* link = h.link;
    sim.schedule_keyed_at(
        h.deliver_at, h.key,
        [link, at = h.deliver_at, pkt = std::move(h.pkt)]() mutable {
          if (telemetry::TraceSink::enabled()) {
            telemetry::trace().record(
                packet_trace_event(at, telemetry::TraceEventType::kRx, link->name(), pkt));
          }
          link->peer()->receive(std::move(pkt), link->peer_in_port());
        });
  }
  buf.clear();
}

std::uint64_t Network::run(sim::SimTime until) {
  if (shards() == 1) return sims_[0]->run(until);

  if (!engine_ || engine_lookahead_ != min_cross_delay_) {
    // (Re)build if topology grew a tighter cross-shard delay since the last
    // run. min_cross_delay_ may be SimTime::max() when no link crosses a
    // shard boundary — windows then collapse to "run everything once".
    sim::sharded::Engine::Config cfg;
    for (auto& s : sims_) cfg.sims.push_back(s.get());
    cfg.lookahead = min_cross_delay_;
    cfg.drain = [this](std::size_t shard) { drain_into(static_cast<unsigned>(shard)); };
    cfg.on_worker_start = [this](std::size_t /*shard*/) {
      // Each worker gets a private thread-local sink configured like the
      // caller's. Workers never run on the calling thread (WorkerPool
      // contract), so the caller's own sink is untouched by the run.
      telemetry::TraceSink::set_enabled(run_trace_on_);
      if (!run_trace_on_) return;
      telemetry::TraceSink& sink = telemetry::trace();
      sink.set_capacity(run_trace_cap_);
      sink.filter_message(run_filter_msg_);
      sink.filter_node(run_filter_node_);
      sink.filter_flow(run_filter_flow_);
    };
    cfg.on_worker_finish = [this](std::size_t shard) {
      if (run_trace_on_) shard_events_[shard] = telemetry::trace().events();
      telemetry::TraceSink::set_enabled(false);
    };
    engine_ = std::make_unique<sim::sharded::Engine>(std::move(cfg));
    engine_lookahead_ = min_cross_delay_;
  }

  run_trace_on_ = telemetry::TraceSink::enabled();
  if (run_trace_on_) {
    const telemetry::TraceSink& sink = telemetry::trace();
    run_trace_cap_ = sink.capacity();
    run_filter_msg_ = sink.message_filter();
    run_filter_node_ = sink.node_filter();
    run_filter_flow_ = sink.flow_filter();
  }
  shard_events_.assign(shards(), {});

  const std::uint64_t executed = engine_->run(until);

  if (run_trace_on_) {
    // Deterministic merge: tag each event with its shard, stable-sort by
    // (timestamp, shard). Per-shard streams are exactly time-stamped but not
    // strictly time-ordered (a FIFO link records a packet's kTx and the next
    // packet's kDequeue when it settles the serialization end, with the
    // end's own time), so the sort is a real reorder, not just a merge; it
    // is a total order independent of thread scheduling. Note equal-timestamp
    // events from *different* shards order by shard id here, not by the
    // serial run's execution order — cross-shard-count trace comparisons
    // must sort both sides the same way.
    std::vector<std::pair<unsigned, std::size_t>> idx;  // (shard, pos)
    std::size_t total = 0;
    for (const auto& v : shard_events_) total += v.size();
    idx.reserve(total);
    for (unsigned s = 0; s < shards(); ++s) {
      for (std::size_t i = 0; i < shard_events_[s].size(); ++i) idx.push_back({s, i});
    }
    std::stable_sort(idx.begin(), idx.end(),
                     [this](const auto& x, const auto& y) {
                       return shard_events_[x.first][x.second].t <
                              shard_events_[y.first][y.second].t;
                     });
    // The caller's sink (untouched during the run) receives the merged
    // stream after anything it already held, exactly as if the run had
    // recorded into it directly.
    telemetry::TraceSink& sink = telemetry::trace();
    for (const auto& [s, i] : idx) sink.record(std::move(shard_events_[s][i]));
    shard_events_.assign(shards(), {});
  }
  return executed;
}

std::uint64_t Network::pkt_hops() const {
  std::uint64_t hops = 0;
  for (const Link* l : links_) hops += l->stats().pkts_delivered;
  return hops;
}

std::size_t Network::unaccounted_packet_slots() const {
  std::vector<std::size_t> held(shards(), 0);
  for (std::size_t i = 0; i < links_.size(); ++i) {
    held[link_shard_[i]] += links_[i]->held_packets();
  }
  std::size_t off = 0;
  for (unsigned s = 0; s < shards(); ++s) {
    const std::size_t live = pools_[s]->live();
    off += live > held[s] ? live - held[s] : held[s] - live;
  }
  return off;
}

std::uint64_t Network::windows() const {
  return engine_ ? engine_->windows() : 0;
}

}  // namespace mtp::net
