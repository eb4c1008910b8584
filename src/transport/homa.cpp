#include "transport/homa.hpp"

#include <algorithm>
#include <cassert>

#include "net/drop.hpp"

namespace mtp::transport {

namespace {
constexpr double kMaxBackoff = 64.0;
}  // namespace

HomaEndpoint::HomaEndpoint(net::Host& host) : host_(host), sim_(host.simulator()) {
  host_.set_mtp_handler([this](net::Packet&& pkt) { on_packet(std::move(pkt)); });
  metrics_ = telemetry::MetricRegistry::global().add(
      "homa", host_.name(), [this](std::vector<telemetry::MetricSample>& out) {
        using telemetry::MetricKind;
        out.push_back({"pkts_sent", MetricKind::kCounter,
                       static_cast<double>(pkts_sent_)});
        out.push_back({"pkts_retransmitted", MetricKind::kCounter,
                       static_cast<double>(pkts_retx_)});
        out.push_back({"grants_issued", MetricKind::kCounter,
                       static_cast<double>(grants_issued_)});
        out.push_back({"acks_sent", MetricKind::kCounter,
                       static_cast<double>(acks_sent_)});
        out.push_back({"msgs_delivered", MetricKind::kCounter,
                       static_cast<double>(msgs_delivered_)});
        out.push_back({"outstanding_messages", MetricKind::kGauge,
                       static_cast<double>(outgoing_.size())});
        out.push_back({"active_incoming", MetricKind::kGauge,
                       static_cast<double>(active_.size())});
        out.push_back({"srtt_us", MetricKind::kGauge,
                       rtt_.valid ? static_cast<double>(rtt_.srtt.ns()) / 1000.0 : 0.0});
        out.push_back({"checksum_drops", MetricKind::kCounter,
                       static_cast<double>(checksum_drops_)});
      });
}

HomaEndpoint::~HomaEndpoint() {
  // Timers and the host handler hold a raw `this`; the simulator may outlive
  // the endpoint.
  for (auto& [id, msg] : outgoing_) sim_.timers().cancel(msg.retx_timer);
  host_.set_mtp_handler({});
}

// ------------------------------------------------------------------ sender

proto::MsgId HomaEndpoint::send_message(net::NodeId dst, std::int64_t bytes,
                                        HomaOptions opts, DoneFn on_delivered) {
  assert(bytes > 0 && "empty messages are not a thing");
  const proto::MsgId id = next_msg_id_++;
  OutMsg msg;
  msg.id = id;
  msg.dst = dst;
  msg.opts = opts;
  msg.packetize(bytes, kMss);
  // The unscheduled window: one BDP goes out immediately, no grant needed.
  msg.granted = std::min<std::int64_t>(bytes, kRttBytes);
  msg.sched_prio = 0;
  msg.started_at = sim_.now();
  msg.done = std::move(on_delivered);
  OutMsg& slot = outgoing_.emplace(id, std::move(msg)).first->second;
  pump(slot);
  return id;
}

void HomaEndpoint::pump(OutMsg& msg) {
  while (msg.next_unsent < msg.total_pkts &&
         static_cast<std::int64_t>(msg.next_unsent) * kMss < msg.granted) {
    send_data_pkt(msg, msg.next_unsent, /*is_retx=*/false);
    ++msg.next_unsent;
  }
}

void HomaEndpoint::send_data_pkt(OutMsg& msg, std::uint32_t pkt, bool is_retx) {
  // Priority remapping: the unscheduled prefix rides the top level so short
  // messages cut ahead; granted bytes carry whatever level the receiver's
  // SRPT ranking assigned in the latest grant.
  const bool unscheduled = static_cast<std::int64_t>(msg.pkt_offset(pkt, kMss)) <
                           std::min<std::int64_t>(kRttBytes, msg.total_bytes);
  net::Packet p = make_data(host_.id(), msg, pkt, kMss,
                            unscheduled ? kUnscheduledPriority : msg.sched_prio);
  p.header_bytes = kHeaderBytes;
  msg.mark_sent(pkt, sim_.now(), is_retx);
  ++pkts_sent_;
  if (is_retx) ++pkts_retx_;
  if (!sim_.timers().armed(msg.retx_timer)) {
    msg.arm_retx(sim_, sim_.now() + rto(msg), &HomaEndpoint::retx_fire, this);
  }
  host_.send(std::move(p));
}

void HomaEndpoint::on_ack(const net::Packet& pkt) {
  const auto& hdr = pkt.mtp();
  auto it = outgoing_.find(hdr.msg_id);
  if (it == outgoing_.end()) return;  // message already completed
  OutMsg& msg = it->second;
  bool progressed = false;
  for (const auto& s : hdr.sack()) {
    if (s.msg_id != msg.id || s.pkt_num >= msg.total_pkts) continue;
    const PktState st = msg.state(s.pkt_num);
    if (st == PktState::kSacked) continue;
    // Karn: retransmitted packets give ambiguous RTT samples.
    if (!msg.retransmitted(s.pkt_num) && st == PktState::kInflight) {
      rtt_.sample(sim_.now() - msg.pkts[s.pkt_num].sent_at);
    }
    msg.set_state(s.pkt_num, PktState::kSacked);
    ++msg.sacked;
    progressed = true;
  }
  if (progressed) {
    msg.backoff = 1.0;
    while (msg.cursor < msg.total_pkts && msg.state(msg.cursor) == PktState::kSacked) {
      ++msg.cursor;
    }
  }
  if (hdr.has_overload()) {
    // grant_bytes is the absolute byte offset the receiver allows.
    const auto g = static_cast<std::int64_t>(hdr.overload->grant_bytes);
    if (g > msg.granted) msg.granted = std::min<std::int64_t>(g, msg.total_bytes);
    msg.sched_prio = hdr.priority;
  }
  if (msg.sacked == msg.total_pkts) {
    complete_outbound(outgoing_, msg, sim_);
    return;
  }
  pump(msg);
}

void HomaEndpoint::retx_fire(void* self, std::uint64_t id) {
  static_cast<HomaEndpoint*>(self)->on_retx_timer(static_cast<proto::MsgId>(id));
}

void HomaEndpoint::on_retx_timer(proto::MsgId id) {
  auto it = outgoing_.find(id);
  if (it == outgoing_.end()) return;  // completed between arm and fire
  OutMsg& msg = it->second;
  const sim::SimTime deadline = rto(msg);
  const sim::SimTime now = sim_.now();
  bool any_expired = false;
  bool any_inflight = false;
  sim::SimTime oldest = now;
  // The cursor bounds the scan: everything below it is sacked, everything at
  // or above next_unsent was never sent.
  for (std::uint32_t pkt = msg.cursor; pkt < msg.next_unsent; ++pkt) {
    if (msg.state(pkt) != PktState::kInflight) continue;
    const sim::SimTime sent_at = msg.pkts[pkt].sent_at;
    if (now - sent_at > deadline) {
      send_data_pkt(msg, pkt, /*is_retx=*/true);
      any_expired = true;
    } else if (!any_inflight || sent_at < oldest) {
      oldest = sent_at;
      any_inflight = true;
    }
  }
  if (any_expired) {
    msg.backoff = std::min(msg.backoff * 2.0, kMaxBackoff);
  } else if (!any_inflight && msg.next_unsent < msg.total_pkts) {
    // Grant-loss liveness probe: every in-flight packet is sacked, unsent
    // bytes remain, and no grant has arrived — the ACK carrying the grant
    // was lost. Send one packet past the grant horizon; the receiver
    // re-acks it and re-issues the grant (Homa's RESEND analog).
    send_data_pkt(msg, msg.next_unsent, /*is_retx=*/false);
    ++msg.next_unsent;
  }
  // The message is incomplete (completion erases it), so always keep a timer
  // pending: either at the oldest surviving packet's deadline or one RTO out.
  msg.arm_retx(sim_, any_inflight ? oldest + deadline : now + rto(msg),
               &HomaEndpoint::retx_fire, this);
}

// ---------------------------------------------------------------- receiver

void HomaEndpoint::on_packet(net::Packet&& pkt) {
  if (!pkt.checksum_ok()) {
    // Payload damaged in flight: count and drop, never deliver. The sender's
    // retransmission timer recovers.
    net::drop(checksum_drops_, net::DropReason::kChecksum, sim_.now(), host_.name(), pkt);
    return;
  }
  if (pkt.mtp().is_ack()) {
    on_ack(pkt);
  } else {
    on_data(std::move(pkt));
  }
}

void HomaEndpoint::listen(proto::PortNum port, MessageHandler handler) {
  handlers_[port] = std::move(handler);
}

void HomaEndpoint::on_data(net::Packet&& pkt) {
  const auto& hdr = pkt.mtp();
  const MsgKey key{pkt.src, hdr.msg_id};

  // Duplicate of an already-delivered message: re-ACK to quench the sender.
  if (completed_.contains(key)) {
    emit_ack(pkt);
    return;
  }
  if (!Reassembly::well_formed(hdr)) return;

  auto [it, fresh] = incoming_.try_emplace(key);
  InMsg& msg = it->second;
  if (fresh) {
    msg.start(hdr.msg_len_pkts);
    msg.total_bytes = static_cast<std::int64_t>(hdr.msg_len_bytes);
    // The sender's unscheduled window is implicitly granted.
    msg.granted = std::min<std::int64_t>(msg.total_bytes, kRttBytes);
    msg.tc = hdr.tc;
    msg.src_port = hdr.src_port;
    msg.dst_port = hdr.dst_port;
    msg.first_pkt_at = sim_.now();
    active_.insert({msg.total_bytes, key.src, key.id});
  }

  if (msg.add(hdr.pkt_num)) {
    const std::int64_t before = msg.total_bytes - msg.received_bytes;
    msg.received_bytes += pkt.payload_bytes;
    if (on_payload) on_payload(pkt.payload_bytes);
    // Remaining bytes shrank: re-key the SRPT set so the grant ranking sees
    // the new shortest-remaining order.
    active_.erase({before, key.src, key.id});
    active_.insert({msg.total_bytes - msg.received_bytes, key.src, key.id});
  }

  if (msg.complete()) {
    emit_ack(pkt);  // final SACK completes the sender
    active_.erase({0, key.src, key.id});
    auto h = handlers_.find(msg.dst_port);
    ++msgs_delivered_;
    const net::NodeId src = key.src;
    const std::int64_t bytes = msg.total_bytes;
    incoming_.erase(it);  // msg is dangling beyond this point
    completed_.insert(key);
    if (h != handlers_.end() && h->second) h->second(src, bytes);
    issue_grants();  // a slot opened: promote the next message
    return;
  }
  emit_ack(pkt);
  issue_grants();
}

void HomaEndpoint::emit_ack(const net::Packet& data) {
  net::Packet p = make_reply(data, host_.id());
  auto& hdr = p.mtp();
  hdr.sack().push_back({hdr.msg_id, hdr.pkt_num});
  p.header_bytes = kHeaderBytes +
                   static_cast<std::uint32_t>(hdr.sack().size() * 12);
  ++acks_sent_;
  host_.send(std::move(p));
}

void HomaEndpoint::issue_grants() {
  // Walk the SRPT order: the top kOvercommit incomplete messages each get
  // one kRttBytes of lookahead past what has arrived, at a priority level
  // that falls with SRPT rank (rank 0 = highest scheduled level).
  int rank = 0;
  for (auto it = active_.begin(); it != active_.end() && rank < kOvercommit;
       ++it, ++rank) {
    const MsgKey key{std::get<1>(*it), std::get<2>(*it)};
    auto mi = incoming_.find(key);
    if (mi == incoming_.end()) continue;
    InMsg& msg = mi->second;
    const std::int64_t desired =
        std::min(msg.total_bytes, msg.received_bytes + kRttBytes);
    if (desired <= msg.granted) continue;
    const int prio = std::max(0, static_cast<int>(kSchedPriorities) - 1 - rank);
    msg.granted = desired;
    send_grant(key, msg, desired, static_cast<std::uint8_t>(prio));
  }
}

void HomaEndpoint::send_grant(const MsgKey& key, InMsg& msg, std::int64_t offset,
                              std::uint8_t prio) {
  net::Packet p;
  p.src = host_.id();
  p.dst = key.src;
  p.payload_bytes = 0;
  p.ecn = net::Ecn::kNotEct;
  p.tc = msg.tc;
  p.priority = prio;
  p.flow_hash = message_flow_hash(p.src, msg.dst_port, key.src, msg.src_port);

  proto::MtpHeader hdr;
  hdr.src_port = msg.dst_port;
  hdr.dst_port = msg.src_port;
  hdr.type = proto::MtpPacketType::kAck;
  hdr.msg_id = key.id;
  hdr.tc = msg.tc;
  hdr.priority = prio;  // the scheduled level the sender should use from here
  hdr.msg_len_bytes = static_cast<std::uint64_t>(msg.total_bytes);
  hdr.msg_len_pkts = msg.total_pkts;
  hdr.overload.ensure().grant_bytes = static_cast<std::uint64_t>(offset);
  p.header_bytes = kHeaderBytes;
  p.header = std::move(hdr);
  ++grants_issued_;
  host_.send(std::move(p));
}

}  // namespace mtp::transport
