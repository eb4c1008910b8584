// Network: owns the simulator(s), nodes and links, and wires topologies.
//
// A Network is built for a shard count fixed at construction. With one shard
// (the default) it is exactly the classic single-simulator container. With
// S > 1 shards it owns S simulators and S arenas; topology builders place
// each node on a shard (set_build_shard), links bind to their *sending*
// node's simulator, and a link whose endpoints live on different shards
// hands packets across through a lock-free SPSC channel instead of
// scheduling the delivery locally. run() then drives all shards through
// sim::sharded::Engine using the minimum cross-shard propagation delay as
// conservative lookahead — and merges per-shard traces deterministically
// (timestamp, then shard id) back into the caller's sink. See
// sim/sharded/engine.hpp for why the result is bit-identical to shards=1.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/host.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"
#include "sim/arena.hpp"
#include "sim/random.hpp"
#include "sim/sharded/spsc.hpp"
#include "sim/simulator.hpp"

namespace mtp::sim::sharded {
class Engine;
}  // namespace mtp::sim::sharded

namespace mtp::net {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1, unsigned shards = 1);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Shard 0's simulator — THE simulator for single-shard networks.
  sim::Simulator& simulator() { return *sims_[0]; }
  sim::Simulator& simulator(unsigned shard) { return *sims_.at(shard); }
  unsigned shards() const { return static_cast<unsigned>(sims_.size()); }
  sim::Rng& rng() { return rng_; }

  /// Conservative lookahead: the minimum propagation delay over cross-shard
  /// links wired so far (SimTime::max() if none).
  sim::SimTime lookahead() const { return min_cross_delay_; }

  /// Topology builders call this before add_host()/add_switch() to place
  /// subsequent nodes (and the links they send on) on `shard`.
  void set_build_shard(unsigned shard) {
    if (shard >= shards()) {
      throw std::invalid_argument("Network::set_build_shard: shard out of range");
    }
    build_shard_ = shard;
  }
  unsigned build_shard() const { return build_shard_; }
  /// Nodes constructed outside add_host()/add_switch() (test fixtures with
  /// hand-picked ids) were never placed; they count as the current build
  /// shard rather than indexing node_shard_ out of bounds.
  unsigned shard_of(const Node& n) const {
    return n.id() < node_shard_.size() ? node_shard_[n.id()] : build_shard_;
  }

  Host* add_host(std::string name) {
    Host* p = arenas_[build_shard_]->make<Host>(*sims_[build_shard_], next_id(),
                                                std::move(name));
    nodes_.push_back(p);
    node_shard_.push_back(build_shard_);
    return p;
  }

  Switch* add_switch(std::string name) {
    Switch* p = arenas_[build_shard_]->make<Switch>(*sims_[build_shard_], next_id(),
                                                    std::move(name));
    nodes_.push_back(p);
    node_shard_.push_back(build_shard_);
    return p;
  }

  /// One direction of a cable: a -> b. Returns the created link, attached as
  /// a new out-port on `a` and delivering into `b`. The link lives in `a`'s
  /// shard (queueing and serialization run on the sender's simulator); when
  /// `b` is on another shard the delivery crosses an SPSC channel.
  Link* connect_simplex(Node& a, Node& b, sim::Bandwidth bw, sim::SimTime delay,
                        std::unique_ptr<Queue> queue);

  struct Duplex {
    Link* forward;   ///< a -> b
    Link* backward;  ///< b -> a
  };

  /// Symmetric duplex cable with drop-tail queues on both ends.
  Duplex connect(Node& a, Node& b, sim::Bandwidth bw, sim::SimTime delay,
                 DropTailQueue::Config qcfg = {}) {
    return {connect_simplex(a, b, bw, delay, std::make_unique<DropTailQueue>(qcfg)),
            connect_simplex(b, a, bw, delay, std::make_unique<DropTailQueue>(qcfg))};
  }

  /// Derive every switch's route table from the links alone, replacing any
  /// it held; topology builders call it once their wiring is done. The rule:
  /// - Levels: a host is 0, a switch one more than its lowest-level
  ///   neighbour (one multi-source BFS from the hosts, links either way).
  /// - Up: a switch's default route is its up ports (peer at a higher
  ///   level), in port order.
  /// - Down: a switch routes every node below it explicitly: each down-port
  ///   peer and all it reaches through switches by strictly descending level,
  ///   candidate ports ascending, no duplicates. Hosts are never traversed;
  ///   host tables are never written (Host::add_route: dual-homed hosts).
  /// - Rejects: a switch-to-switch link between equal levels, or a switch no
  ///   host reaches, throws std::invalid_argument.
  /// Every host and level-1 switch (ToR) is then reachable from every host; a
  /// higher switch only from the switches above it (docs/scale.md).
  /// Cost: O(nodes + links + route entries); each table is sized once.
  void build_routes();

  /// Run every shard to `until` (exclusive bound on event timestamps, like
  /// Simulator::run). Returns the number of events executed across shards.
  /// Single-shard networks run inline on the calling thread; multi-shard
  /// networks run under sim::sharded::Engine, with per-shard traces merged
  /// back into the calling thread's sink ordered by (timestamp, shard).
  std::uint64_t run(sim::SimTime until = sim::SimTime::max());

  /// Conservative windows executed by run() so far (0 for single-shard).
  std::uint64_t windows() const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  /// Packet hops so far: every link's transmitted packets, summed. The
  /// work unit of a packet-level run, whatever the events per hop.
  std::uint64_t pkt_hops() const;

  /// Every link in topology-construction order — the order is a function of
  /// the topology alone (not the shard count), so an index into this vector
  /// is a shard-invariant link identity. The fluid flow model (sim/flow)
  /// registers its conduits in exactly this order on every replica.
  const std::vector<Link*>& links() const { return links_; }
  /// The shard whose simulator runs a link's events (its sender's shard).
  unsigned shard_of_link(std::size_t link_index) const {
    return link_shard_[link_index];
  }

  /// Shard `shard`'s packet pool. Every link of the shard (and its queue)
  /// keeps its waiting packets here; a packet crossing to another shard
  /// leaves it when serialization ends (docs/perf.md, "Where packets wait").
  const PacketPool& packet_pool(unsigned shard) const { return *pools_.at(shard); }

  /// Slot conservation: for each shard, |live pool slots - packets its links
  /// hold (Link::held_packets)|, summed. Zero between events; anything else
  /// is a slot leaked or freed twice. Costs one pass over the links.
  std::size_t unaccounted_packet_slots() const;

 private:
  /// A packet mid-flight between shards: everything the receiving shard
  /// needs to schedule the delivery as a keyed event.
  struct Handoff {
    Packet pkt;
    sim::SimTime deliver_at;
    std::uint64_t key = 0;
    const Link* link = nullptr;
  };
  using Channel = sim::sharded::SpscChannel<Handoff>;

  NodeId next_id() { return static_cast<NodeId>(nodes_.size()); }
  // Next in-port index on `b`: the number of links already delivering into
  // it. A running counter — scanning links_ per connect made building a
  // thousand-host fat-tree quadratic in the link count.
  PortIndex next_in_port(Node& b) { return in_port_count_[&b]++; }

  Channel& channel(unsigned from, unsigned to) {
    return *channels_[from * shards() + to];
  }
  /// Move every queued handoff bound for `shard` onto its simulator.
  /// Called by the engine on the shard's worker thread between windows.
  void drain_into(unsigned shard);

  sim::Rng rng_;
  std::vector<std::unique_ptr<sim::Simulator>> sims_;   ///< one per shard
  /// One per shard. Declared before arenas_ so every pool outlives the
  /// links and queues bound to it.
  std::vector<std::unique_ptr<PacketPool>> pools_;
  std::vector<std::unique_ptr<sim::Arena>> arenas_;     ///< nodes+links, per shard
  std::vector<std::unique_ptr<Channel>> channels_;      ///< [from * S + to]
  std::vector<std::vector<Handoff>> drain_buf_;         ///< per-shard scratch
  unsigned build_shard_ = 0;
  std::vector<Node*> nodes_;        ///< arena-owned
  std::vector<unsigned> node_shard_;  ///< by NodeId
  std::vector<Link*> links_;        ///< arena-owned
  std::vector<unsigned> link_shard_;  ///< by links_ index: the sender's shard
  std::uint64_t next_link_uid_ = 0;
  sim::SimTime min_cross_delay_ = sim::SimTime::max();
  std::unordered_map<const Node*, PortIndex> in_port_count_;

  // --- sharded::Engine plumbing (multi-shard runs only).
  std::unique_ptr<sim::sharded::Engine> engine_;
  sim::SimTime engine_lookahead_ = sim::SimTime::zero();  ///< lookahead engine_ was built with
  bool run_trace_on_ = false;                 ///< caller's trace flag, per run
  std::size_t run_trace_cap_ = 0;             ///< caller's sink capacity
  std::optional<std::uint64_t> run_filter_msg_;   ///< caller's filters, copied
  std::optional<std::uint32_t> run_filter_node_;  ///< onto worker sinks
  std::optional<std::uint64_t> run_filter_flow_;
  std::vector<std::vector<telemetry::TraceEvent>> shard_events_;
};

}  // namespace mtp::net
