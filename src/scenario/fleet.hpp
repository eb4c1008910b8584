// The transport zoo's common API.
//
// Every transport the scenarios compare — MTP, (DC)TCP, the Homa-style
// receiver-driven transport, the MPTCP subflow model — is reached through
// the same types:
//
//   Transport       one sender endpoint: send_message(bytes, opts, done),
//                   send_bulk(), completed(), name(). SendOptions carries
//                   the per-message knobs (priority / tc / deadline).
//   Fleet<Endpoint> everything one scenario needs for one transport: the
//                   sender endpoints (core::MtpEndpoint, HomaEndpoint or
//                   TcpStack), the receiver-side endpoint, one Transport per
//                   sender, built in one deterministic order, and a
//                   metrics() roll-up. TCP, DCTCP and MPTCP share the
//                   TcpStack instantiation.
//   make_fleet      the five transport names ("mtp", "tcp", "dctcp", "homa",
//                   "mptcp"); unknown names fail listing them.
//
// Scenario reaches the concrete endpoints through Fleet<Endpoint> for
// scenarios that must get under the abstraction — streams ride MTP
// endpoints, fig7 drives raw TCP stacks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mtp/endpoint.hpp"
#include "net/network.hpp"
#include "stats/stats.hpp"
#include "transport/apps.hpp"
#include "transport/homa.hpp"
#include "transport/tcp.hpp"

namespace mtp::transport {

/// Per-message options, understood by every transport to the extent its
/// protocol can express them (TCP-family transports ignore priority; only
/// MTP enforces deadlines in-network).
struct SendOptions {
  std::uint8_t priority = 0;
  proto::TrafficClassId tc = 0;
  sim::SimTime deadline;  ///< absolute sim time; 0 = none
};

/// Uniform counter roll-up every fleet reports (RunReport columns).
struct TransportMetrics {
  std::uint64_t msgs_completed = 0;
  std::uint64_t pkts_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t grants_issued = 0;

  TransportMetrics& operator+=(const TransportMetrics& o) {
    msgs_completed += o.msgs_completed;
    pkts_sent += o.pkts_sent;
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    grants_issued += o.grants_issued;
    return *this;
  }
};

/// One sender endpoint of one transport, bound to the scenario's receiver.
class Transport {
 public:
  /// Completion callback: flow completion time and message size.
  using DoneFn = std::function<void(sim::SimTime fct, std::int64_t bytes)>;

  virtual ~Transport() = default;

  /// Send one `bytes`-long message with explicit options.
  virtual void send_message(std::int64_t bytes, const SendOptions& opts,
                            DoneFn done) = 0;

  /// Send with this sender's defaults (its scenario-assigned traffic class).
  void send_message(std::int64_t bytes, DoneFn done = {}) {
    send_message(bytes, defaults_, std::move(done));
  }

  /// Long-running background transfer; bytes < 0 means "effectively endless"
  /// (TCP keeps a bottomless connection open, message transports send one
  /// huge message).
  virtual void send_bulk(std::int64_t bytes) {
    send_message(bytes < 0 ? (std::int64_t{1} << 30) : bytes, defaults_, {});
  }

  /// Messages whose completion callback has fired (aborted transfers count,
  /// mirroring TCP's per-message client).
  virtual std::uint64_t completed() const = 0;

  virtual std::string name() const = 0;

 protected:
  explicit Transport(SendOptions defaults) : defaults_(defaults) {}
  SendOptions defaults_;
};

/// What a fleet is built from: the built topology plus the scenario's
/// addressing and metering choices.
struct TransportBuildContext {
  net::Network* net = nullptr;
  std::vector<net::Host*> senders;
  net::Host* receiver = nullptr;  ///< null = peer-to-peer topology
  proto::PortNum dst_port = 80;
  std::vector<proto::TrafficClassId> sender_tcs;
  stats::ThroughputMeter* meter = nullptr;

  proto::TrafficClassId tc_of(std::size_t i) const {
    return i < sender_tcs.size() ? sender_tcs[i] : proto::TrafficClassId{0};
  }
};

/// The transport-independent face of a Fleet.
class TransportFleet {
 public:
  TransportFleet() = default;
  TransportFleet(const TransportFleet&) = delete;
  TransportFleet& operator=(const TransportFleet&) = delete;
  virtual ~TransportFleet() = default;
  virtual const std::string& name() const = 0;
  virtual std::size_t num_senders() const = 0;  ///< 0 when peer-to-peer
  virtual Transport& sender(std::size_t i) = 0;
  virtual TransportMetrics metrics() const = 0;
};

/// Instantiated (in fleet.cpp) for core::MtpEndpoint, HomaEndpoint and
/// TcpStack only.
template <class Endpoint>
class Fleet final : public TransportFleet {
 public:
  /// Builds the sender endpoints in sender order (each from its host and
  /// `cfg`, which Homa, having no config, leaves empty), then the receiver
  /// side, then one Transport per sender: creation order is part of the
  /// recorded experiment.
  template <class... Cfg>
  Fleet(std::string name, const TransportBuildContext& ctx, const Cfg&... cfg);

  const std::string& name() const override { return name_; }
  std::size_t num_senders() const override { return senders_.size(); }
  Transport& sender(std::size_t i) override { return *senders_.at(i); }
  TransportMetrics metrics() const override;

  Endpoint& sender_endpoint(std::size_t i) { return *eps_.at(i); }
  Endpoint* receiver_endpoint() { return rcv_.get(); }

 private:
  template <class... Cfg>
  void build_endpoints(const TransportBuildContext& ctx, const Cfg&... cfg);

  std::string name_;
  // Destroyed bottom-up: transports and the sink hold endpoint references.
  std::vector<std::unique_ptr<Endpoint>> eps_;
  std::unique_ptr<Endpoint> rcv_;
  std::unique_ptr<TcpSink> sink_;  ///< TCP family only
  std::vector<std::unique_ptr<Transport>> senders_;
};

/// Builds the fleet for one of the five transport names. `mtp` configures
/// the MTP senders; every other transport runs its default config. Throws
/// std::invalid_argument listing the known names when `name` is unknown.
std::unique_ptr<TransportFleet> make_fleet(const std::string& name,
                                           const TransportBuildContext& ctx,
                                           const core::MtpConfig& mtp);

}  // namespace mtp::transport
