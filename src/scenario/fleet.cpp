#include "scenario/fleet.hpp"

#include <stdexcept>

#include "transport/mptcp.hpp"

namespace mtp::transport {

namespace {

// ------------------------------------------------------------------- MTP

class MtpTransport : public Transport {
 public:
  MtpTransport(core::MtpEndpoint& ep, net::NodeId dst, proto::PortNum dst_port,
               SendOptions defaults)
      : Transport(defaults), ep_(ep), dst_(dst), dst_port_(dst_port) {}

  void send_message(std::int64_t bytes, const SendOptions& opts,
                    DoneFn done) override {
    core::MessageOptions mo;
    mo.priority = opts.priority;
    mo.tc = opts.tc;
    mo.dst_port = dst_port_;
    mo.deadline = opts.deadline;
    ep_.send_message(dst_, bytes, std::move(mo),
                     [this, bytes, done = std::move(done)](
                         proto::MsgId, sim::SimTime fct) mutable {
                       ++completed_;
                       if (done) done(fct, bytes);
                     });
  }

  std::uint64_t completed() const override { return completed_; }
  std::string name() const override { return "mtp"; }

 private:
  core::MtpEndpoint& ep_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  std::uint64_t completed_ = 0;
};

// ------------------------------------------------------------------- TCP

class TcpTransport : public Transport {
 public:
  TcpTransport(TcpStack& stack, net::NodeId dst, proto::PortNum dst_port,
               SendOptions defaults)
      : Transport(defaults),
        stack_(stack),
        dst_(dst),
        dst_port_(dst_port),
        client_(stack, dst, dst_port) {}

  // Per-call tc/priority cannot be honored: a TCP stack's traffic class is
  // per-stack configuration, already set by the fleet.
  void send_message(std::int64_t bytes, const SendOptions&, DoneFn done) override {
    client_.send_message(bytes, std::move(done));
  }

  void send_bulk(std::int64_t bytes) override {
    bulk_.push_back(
        std::make_unique<TcpBulkSource>(stack_, dst_, dst_port_, bytes));
  }

  std::uint64_t completed() const override { return client_.completed(); }
  std::string name() const override {
    return stack_.config().dctcp ? "dctcp" : "tcp";
  }

 private:
  TcpStack& stack_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  TcpPerMessageClient client_;
  std::vector<std::unique_ptr<TcpBulkSource>> bulk_;
};

// ------------------------------------------------------------------ Homa

class HomaTransport : public Transport {
 public:
  HomaTransport(HomaEndpoint& ep, net::NodeId dst, proto::PortNum dst_port,
                SendOptions defaults)
      : Transport(defaults), ep_(ep), dst_(dst), dst_port_(dst_port) {}

  void send_message(std::int64_t bytes, const SendOptions& opts,
                    DoneFn done) override {
    // Receiver-driven SRPT makes sender-assigned priority moot; deadlines
    // are not part of the Homa model.
    HomaOptions ho;
    ho.tc = opts.tc;
    ho.dst_port = dst_port_;
    ep_.send_message(dst_, bytes, ho,
                     [this, bytes, done = std::move(done)](
                         proto::MsgId, sim::SimTime fct) mutable {
                       ++completed_;
                       if (done) done(fct, bytes);
                     });
  }

  std::uint64_t completed() const override { return completed_; }
  std::string name() const override { return "homa"; }

 private:
  HomaEndpoint& ep_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  std::uint64_t completed_ = 0;
};

// ----------------------------------------------------------------- MPTCP

class MptcpTransport : public Transport {
 public:
  MptcpTransport(TcpStack& stack, net::NodeId dst, proto::PortNum dst_port,
                 SendOptions defaults)
      : Transport(defaults), stack_(stack), dst_(dst), dst_port_(dst_port) {}

  void send_message(std::int64_t bytes, const SendOptions&, DoneFn done) override {
    // Prune only fully-unwound sessions: a closed-loop done callback calls
    // send_message while its session's finish() (and the subflow connection
    // that drove it) are still on the stack — such a session is finished()
    // but not yet reapable().
    std::erase_if(sessions_, [](const auto& s) { return s->reapable(); });
    sessions_.push_back(std::make_unique<MptcpSession>(
        stack_, dst_, dst_port_, bytes,
        [this, done = std::move(done)](sim::SimTime fct,
                                       std::int64_t sent) mutable {
          ++completed_;
          if (done) done(fct, sent);
        }));
  }

  std::uint64_t completed() const override { return completed_; }
  std::string name() const override { return "mptcp"; }

 private:
  TcpStack& stack_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  std::vector<std::unique_ptr<MptcpSession>> sessions_;
  std::uint64_t completed_ = 0;
};

// Which adapter each sender gets: TCP-family stacks carry per-message TCP
// connections, except under "mptcp", where each message is a subflow session.
std::unique_ptr<Transport> make_transport(core::MtpEndpoint& ep, const std::string&,
                                          net::NodeId dst, proto::PortNum port,
                                          SendOptions defaults) {
  return std::make_unique<MtpTransport>(ep, dst, port, defaults);
}
std::unique_ptr<Transport> make_transport(HomaEndpoint& ep, const std::string&,
                                          net::NodeId dst, proto::PortNum port,
                                          SendOptions defaults) {
  return std::make_unique<HomaTransport>(ep, dst, port, defaults);
}
std::unique_ptr<Transport> make_transport(TcpStack& stack, const std::string& name,
                                          net::NodeId dst, proto::PortNum port,
                                          SendOptions defaults) {
  if (name == "mptcp") return std::make_unique<MptcpTransport>(stack, dst, port, defaults);
  return std::make_unique<TcpTransport>(stack, dst, port, defaults);
}

// The metrics roll-up. Message transports count sender packets and the
// receiver's grants; TCP counts every stack, the receiver's ACKs included.
template <class Endpoint>
TransportMetrics sender_counters(const Endpoint& ep) {
  return {.pkts_sent = ep.pkts_sent(), .retransmits = ep.pkts_retransmitted()};
}
template <class Endpoint>
TransportMetrics receiver_counters(const Endpoint& ep) {
  return {.grants_issued = ep.grants_issued()};
}
TransportMetrics sender_counters(const TcpStack& s) {
  return {.pkts_sent = s.total_pkts_sent(),
          .retransmits = s.total_retransmits(),
          .timeouts = s.total_timeouts()};
}
TransportMetrics receiver_counters(const TcpStack& s) { return sender_counters(s); }

}  // namespace

template <class Endpoint>
template <class... Cfg>
Fleet<Endpoint>::Fleet(std::string name, const TransportBuildContext& ctx,
                       const Cfg&... cfg)
    : name_(std::move(name)) {
  build_endpoints(ctx, cfg...);
  if (!ctx.receiver) return;
  for (std::size_t i = 0; i < eps_.size(); ++i) {
    senders_.push_back(make_transport(*eps_[i], name_, ctx.receiver->id(), ctx.dst_port,
                                      {.tc = ctx.tc_of(i)}));
  }
}

template <class Endpoint>
TransportMetrics Fleet<Endpoint>::metrics() const {
  TransportMetrics m;
  for (const auto& t : senders_) m.msgs_completed += t->completed();
  for (const auto& ep : eps_) m += sender_counters(*ep);
  if (rcv_) m += receiver_counters(*rcv_);
  return m;
}

// MTP and Homa: every endpoint accepts on dst_port into a no-op handler.
template <class Endpoint>
template <class... Cfg>
void Fleet<Endpoint>::build_endpoints(const TransportBuildContext& ctx, const Cfg&... cfg) {
  const auto accept = [port = ctx.dst_port](Endpoint& ep) {
    ep.listen(port, [](const auto&...) {});
  };
  for (net::Host* h : ctx.senders) {
    eps_.push_back(std::make_unique<Endpoint>(*h, cfg...));
    // Peer-to-peer topologies: every endpoint also accepts messages.
    if (!ctx.receiver) accept(*eps_.back());
  }
  if (!ctx.receiver) return;
  // The receiver is built from its host alone (MTP: the default config), so
  // sender-side knobs (auto-exclusion, ACK coalescing) cannot distort the
  // sink.
  rcv_ = std::make_unique<Endpoint>(*ctx.receiver);
  accept(*rcv_);
  if (auto* meter = ctx.meter) {
    // The receiver's shard clock: payload deliveries (and so the meter) run
    // on that shard's worker thread only.
    auto* sim = &ctx.net->simulator(ctx.net->shard_of(*ctx.receiver));
    rcv_->on_payload = [meter, sim](std::int64_t bytes) {
      meter->record(sim->now(), bytes);
    };
  }
}

// TCP family: each stack stamps its sender's traffic class on every packet;
// the receiver stack keeps the fleet's DCTCP flag and feeds a TcpSink.
template <>
template <>
void Fleet<TcpStack>::build_endpoints(const TransportBuildContext& ctx, const TcpConfig& cfg) {
  for (std::size_t i = 0; i < ctx.senders.size(); ++i) {
    TcpConfig c = cfg;
    c.tc = ctx.tc_of(i);
    eps_.push_back(std::make_unique<TcpStack>(*ctx.senders[i], c));
  }
  if (!ctx.receiver) return;
  TcpConfig rcfg = cfg;
  rcfg.tc = 0;
  rcv_ = std::make_unique<TcpStack>(*ctx.receiver, rcfg);
  sink_ = std::make_unique<TcpSink>(*rcv_, ctx.dst_port, ctx.meter);
}

template class Fleet<core::MtpEndpoint>;
template class Fleet<HomaEndpoint>;
template class Fleet<TcpStack>;

std::unique_ptr<TransportFleet> make_fleet(const std::string& name,
                                           const TransportBuildContext& ctx,
                                           const core::MtpConfig& mtp) {
  if (name == "mtp") return std::make_unique<Fleet<core::MtpEndpoint>>(name, ctx, mtp);
  if (name == "homa") return std::make_unique<Fleet<HomaEndpoint>>(name, ctx);
  if (name == "tcp" || name == "dctcp" || name == "mptcp") {
    TcpConfig tcp;
    tcp.dctcp = name == "dctcp";
    return std::make_unique<Fleet<TcpStack>>(name, ctx, tcp);
  }
  throw std::invalid_argument("unknown transport '" + name +
                              "'; known: mtp tcp dctcp homa mptcp");
}

}  // namespace mtp::transport
