#include "mtp/endpoint.hpp"

#include <algorithm>
#include <cassert>

#include "net/drop.hpp"
#include "net/link.hpp"
#include "telemetry/trace.hpp"

namespace mtp::core {

using transport::PktState;

MtpEndpoint::MtpEndpoint(net::Node& node, MtpConfig cfg)
    : node_(node), cfg_(cfg), sim_(node.simulator()) {
  node_.set_mtp_handler([this](net::Packet&& pkt) { on_packet(std::move(pkt)); });
  paths_.push_back({{proto::kDefaultPathlet}, {}});  // PathIndex 0 = default path
  // Retransmission timers live on the simulator's shared timer wheel, one
  // per message with in-flight packets — an idle endpoint leaves the event
  // queue empty (simulations can run to quiescence).
  ack_flush_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, kAckFlushTimeout, [this] { flush_acks(); });
  metrics_ = telemetry::MetricRegistry::global().add(
      "mtp", node_.name(), [this](std::vector<telemetry::MetricSample>& out) {
        using telemetry::MetricKind;
        out.push_back({"pkts_sent", MetricKind::kCounter,
                       static_cast<double>(pkts_sent_)});
        out.push_back({"pkts_retransmitted", MetricKind::kCounter,
                       static_cast<double>(pkts_retx_)});
        out.push_back({"acks_sent", MetricKind::kCounter,
                       static_cast<double>(acks_sent_)});
        out.push_back({"msgs_delivered", MetricKind::kCounter,
                       static_cast<double>(msgs_delivered_)});
        out.push_back({"outstanding_messages", MetricKind::kGauge,
                       static_cast<double>(outgoing_.size())});
        out.push_back({"known_pathlets", MetricKind::kGauge,
                       static_cast<double>(known_pathlets())});
        out.push_back({"srtt_us", MetricKind::kGauge,
                       rtt_.valid ? static_cast<double>(rtt_.srtt.ns()) / 1000.0 : 0.0});
        out.push_back({"checksum_drops", MetricKind::kCounter,
                       static_cast<double>(checksum_drops_)});
        out.push_back({"rto_backoff", MetricKind::kGauge, rto_backoff_});
        out.push_back({"excluded_pathlets", MetricKind::kGauge,
                       static_cast<double>(excluded_until_.size())});
      });
  if (cfg_.overload.enabled) {
    admission_ = overload::Admission(cfg_.overload.admission);
    overload_metrics_ = telemetry::MetricRegistry::global().add(
        "overload", node_.name(),
        [this](std::vector<telemetry::MetricSample>& out) {
          using telemetry::MetricKind;
          out.push_back({"grants_issued", MetricKind::kCounter,
                         static_cast<double>(grants_issued_)});
          out.push_back({"busy_rejects_sent", MetricKind::kCounter,
                         static_cast<double>(busy_rejects_sent_)});
          out.push_back({"msgs_rejected", MetricKind::kCounter,
                         static_cast<double>(msgs_rejected_)});
          out.push_back({"deadline_expiries", MetricKind::kCounter,
                         static_cast<double>(deadline_expiries_)});
          out.push_back({"service_rate_gbps", MetricKind::kGauge,
                         admission_.rate_gbps()});
          out.push_back({"active_senders", MetricKind::kGauge,
                         static_cast<double>(admission_.active_senders())});
        });
  }
}

MtpEndpoint::~MtpEndpoint() {
  // Timers and the node handler hold a raw `this`; the simulator may outlive
  // the endpoint.
  outgoing_.for_each([this](OutgoingMessage& msg) { sim_.timers().cancel(msg.retx_timer); });
  node_.set_mtp_handler({});
}

// ------------------------------------------------------------------ sender

proto::MsgId MtpEndpoint::send_message(net::NodeId dst, std::int64_t bytes,
                                       MessageOptions opts, DoneFn on_delivered) {
  assert(bytes > 0 && "empty messages are not a thing in MTP");
  const proto::MsgId id = next_msg_id_++;
  OutgoingMessage& msg = outgoing_.insert(id);
  msg.id = id;
  msg.dst = dst;
  msg.opts = {opts.priority, opts.tc, opts.src_port, opts.dst_port, opts.deadline};
  if (opts.app || opts.stream) {
    msg.pkt0 = std::make_unique<Packet0Payload>(
        Packet0Payload{std::move(opts.app), std::move(opts.stream)});
  }
  msg.packetize(bytes, cfg_.mss);
  msg.started_at = sim_.now();
  msg.done = std::move(on_delivered);
  msg.group = &group_for(msg);
  enqueue_send(msg, /*urgent=*/false);
  pump();
  return id;
}

MtpEndpoint::SendGroup& MtpEndpoint::group_for(const OutgoingMessage& msg) {
  const std::uint64_t key = (static_cast<std::uint64_t>(msg.dst) << 16) |
                            (static_cast<std::uint64_t>(msg.opts.tc) << 8) |
                            msg.opts.priority;
  auto it = group_index_.find(key);
  if (it != group_index_.end()) return *it->second;
  auto group = std::make_unique<SendGroup>();
  group->dst = msg.dst;
  group->tc = msg.opts.tc;
  group->priority = msg.opts.priority;
  SendGroup* raw = group.get();
  // Keep groups_ ordered by priority (desc), creation order within a level —
  // the same service order the old global stable sort produced.
  auto pos = groups_.begin();
  while (pos != groups_.end() && (*pos)->priority >= raw->priority) ++pos;
  groups_.insert(pos, std::move(group));
  group_index_.emplace(key, raw);
  return *raw;
}

void MtpEndpoint::enqueue_send(OutgoingMessage& msg, bool urgent) {
  SendGroup& g = *msg.group;
  // A retransmission changes the message's next packet even when the
  // message is queued already.
  if (urgent) g.unpark();
  if (msg.send_queued) return;
  msg.send_queued = true;
  if (urgent) {
    g.q.push_front(msg.id);
  } else {
    g.q.push_back(msg.id);
  }
}

void MtpEndpoint::listen(proto::PortNum port, MessageHandler handler) {
  handlers_[port] = std::move(handler);
}

void MtpEndpoint::exclude_pathlet(proto::PathletId pathlet, sim::SimTime duration) {
  excluded_until_[pathlet] = sim_.now() + duration;
  // Forget learned paths that cross the excluded pathlet: new packets to
  // those destinations fall back to the per-destination virtual pathlet and
  // the next ACK teaches the rerouted path. Without this, the sender would
  // keep charging (and capping traffic to) a path it just asked the network
  // to stop using.
  for (auto it = current_path_.begin(); it != current_path_.end();) {
    const auto& pathlets = paths_[it->second].pathlets;
    if (std::find(pathlets.begin(), pathlets.end(), pathlet) != pathlets.end()) {
      path_changed(it->first);
      it = current_path_.erase(it);
    } else {
      ++it;
    }
  }
}

void MtpEndpoint::path_changed(net::NodeId dst) {
  for (const auto& g : groups_) {
    if (g->dst == dst) g->unpark();
  }
}

void MtpEndpoint::stamp_exclusions(proto::MtpHeader& hdr) {
  for (auto it = excluded_until_.begin(); it != excluded_until_.end();) {
    if (it->second <= sim_.now()) {
      it = excluded_until_.erase(it);
    } else {
      hdr.path_exclude().push_back({it->first, 0});
      ++it;
    }
  }
}

void MtpEndpoint::penalize(PathIndex path, proto::TrafficClassId tc, LossKind kind) {
  const sim::SimTime gap =
      rtt_.valid ? std::max(rtt_.srtt * 2, kRetxScanPeriod) : transport::kMinRto;
  const std::span<CcState* const> states = cc_states(path, tc);
  for (std::size_t i = 0; i < states.size(); ++i) {
    CcState& st = *states[i];
    if (st.decreased_once && sim_.now() - st.last_decrease < gap) continue;
    st.last_decrease = sim_.now();
    st.decreased_once = true;
    cc(st, proto::FeedbackType::kNone).on_loss(kind);
    // A virtual pathlet is this endpoint's own stand-in for an unknown path:
    // no switch knows its id, so excluding it would only grow every header.
    const proto::PathletId pathlet = paths_[path].pathlets[i];
    if (cfg_.auto_exclude_after_losses > 0 && kind == LossKind::kTimeout &&
        (pathlet & kVirtualPathletFlag) == 0 &&
        ++consecutive_losses_[pathlet] >= cfg_.auto_exclude_after_losses) {
      exclude_pathlet(pathlet, cfg_.exclude_duration);
      consecutive_losses_[pathlet] = 0;
    }
  }
}

PathletCc& MtpEndpoint::cc(CcState& st, proto::FeedbackType type_hint) {
  if (!st.algo) st.algo = make_cc(type_hint, cfg_.mss);
  ++st.wakes;
  return *st.algo;
}

const PathletCc* MtpEndpoint::pathlet_cc(proto::PathletId id,
                                         proto::TrafficClassId tc) const {
  auto it = cc_.find(CcKey{id, tc});
  return it == cc_.end() ? nullptr : it->second.algo.get();
}

MtpEndpoint::PathIndex MtpEndpoint::intern_path(
    const std::vector<proto::PathletId>& pathlets) {
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i].pathlets == pathlets) return static_cast<PathIndex>(i);
  }
  paths_.push_back({pathlets, {}});
  return static_cast<PathIndex>(paths_.size() - 1);
}

std::span<MtpEndpoint::CcState* const> MtpEndpoint::cc_states(PathIndex path,
                                                              proto::TrafficClassId tc) {
  Path& p = paths_[path];
  const std::size_t n = p.pathlets.size();
  const std::size_t first = tc * n;
  if (p.states.size() < first + n) p.states.resize(first + n);
  if (n > 0 && p.states[first] == nullptr) {
    // A fresh state (no algo, nothing in flight) admits exactly what a
    // missing one did: up to the initial window.
    for (std::size_t i = 0; i < n; ++i) p.states[first + i] = &cc_[CcKey{p.pathlets[i], tc}];
  }
  return {p.states.data() + first, n};
}

std::vector<proto::PathletId> MtpEndpoint::current_path(net::NodeId dst) const {
  auto it = current_path_.find(dst);
  if (it == current_path_.end()) return {};
  return paths_[it->second].pathlets;
}

MtpEndpoint::CcState* MtpEndpoint::admit(PathIndex path, proto::TrafficClassId tc,
                                         std::int64_t bytes) {
  for (CcState* st : cc_states(path, tc)) {
    const std::int64_t wnd =
        st->algo ? st->algo->window_bytes() : init_window_bytes(cfg_.mss);
    if (st->inflight + bytes > wnd) return st;
  }
  return nullptr;
}

void MtpEndpoint::charge(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes) {
  for (CcState* st : cc_states(path, tc)) st->inflight += bytes;
}

void MtpEndpoint::uncharge(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes) {
  for (CcState* st : cc_states(path, tc)) {
    st->inflight = std::max<std::int64_t>(0, st->inflight - bytes);
    ++st->wakes;
  }
}

void MtpEndpoint::pump() {
  check_parked();
  // Serve groups in priority order; inside a group, drain messages FIFO
  // until one is blocked — every message behind it shares the same
  // (dst-derived path, tc) admission budget, so it would block too. A blocked
  // message keeps send_queued and is retried at a later pump; if a pathlet
  // window refused it, its group parks (see SendGroup).
  for (const auto& gp : groups_) {
    SendGroup& g = *gp;
    if (g.parked()) continue;
    g.unpark();
    while (!g.q.empty()) {
      OutgoingMessage* msg = outgoing_.find(g.q.front());
      if (msg == nullptr) {  // completed since it queued
        g.q.pop_front();
        continue;
      }
      CcState* full = nullptr;
      if (!service_msg(*msg, full)) {
        if (full) g.park(*full);
        break;
      }
      msg->send_queued = false;
      g.q.pop_front();
    }
  }
}

void MtpEndpoint::check_parked() {
#ifndef NDEBUG
  for (const auto& g : groups_) {
    if (!g->parked()) continue;
    // Re-derive what service_msg would try first, without side effects.
    const OutgoingMessage* msg = nullptr;
    for (std::size_t i = 0; i < g->q.size(); ++i) {
      if ((msg = outgoing_.find(g->q[i])) != nullptr) break;
    }
    assert(msg != nullptr && "a parked group has a message to send");
    std::uint32_t pkt = msg->next_unsent;
    for (const std::uint32_t r : msg->retx_queue) {
      if (msg->state(r) == PktState::kLost) {
        pkt = r;
        break;
      }
    }
    assert(pkt < msg->total_pkts && "a parked group's front message has a packet to send");
    auto path = current_path_.find(g->dst);
    assert(path != current_path_.end() && "a parked group's destination has a path");
    const bool refused = admit(path->second, g->tc, msg->pkt_len(pkt, cfg_.mss)) != nullptr;
    assert(refused && "a parked group's front packet is not admissible");
  }
#endif
}

bool MtpEndpoint::service_msg(OutgoingMessage& msg, CcState*& full) {
  // Retransmissions first: they unblock message completion.
  while (!msg.retx_queue.empty()) {
    const std::uint32_t pkt = msg.retx_queue.front();
    if (msg.state(pkt) != PktState::kLost) {  // already re-sacked meanwhile
      msg.retx_queue.pop_front();
      continue;
    }
    if (!try_send_pkt(msg, pkt, /*is_retx=*/true, full)) return false;
    msg.retx_queue.pop_front();
  }
  while (msg.next_unsent < msg.total_pkts) {
    if (!try_send_pkt(msg, msg.next_unsent, /*is_retx=*/false, full)) return false;
    ++msg.next_unsent;
  }
  return true;
}

bool MtpEndpoint::try_send_pkt(OutgoingMessage& msg, std::uint32_t pkt, bool is_retx,
                               CcState*& full) {
  auto path_it = current_path_.find(msg.dst);
  if (path_it == current_path_.end()) {
    // No feedback learned yet: use a per-destination default pathlet. One
    // pathlet covering the whole network mimics TCP (paper §4), and TCP
    // state is per-connection — so the default window is per destination,
    // keeping an unreachable destination from starving the others.
    const proto::PathletId virtual_id =
        kVirtualPathletFlag | (msg.dst & ~kVirtualPathletFlag);
    path_it = current_path_.emplace(msg.dst, intern_path({virtual_id})).first;
  }
  const PathIndex path = path_it->second;
  const std::int64_t bytes = msg.pkt_len(pkt, cfg_.mss);
  full = admit(path, msg.opts.tc, bytes);
  if (full != nullptr || !grant_admit(msg.dst, bytes)) return false;
  charge(path, msg.opts.tc, bytes);
  grant_charge(msg.dst, bytes);
  msg.charged_path(pkt) = path;
  msg.mark_sent(pkt, sim_.now(), is_retx);
  if (is_retx) ++pkts_retx_;
  msg.inflight_fifo.push_back(pkt);
  if (!sim_.timers().armed(msg.retx_timer)) {
    msg.arm_retx(sim_, sim_.now() + rto(), &MtpEndpoint::retx_fire, this);
  }
  send_data_pkt(msg, pkt);
  return true;
}

void MtpEndpoint::send_data_pkt(OutgoingMessage& msg, std::uint32_t pkt) {
  net::Packet p = transport::make_data(node_.id(), msg, pkt, cfg_.mss, msg.opts.priority);
  auto& hdr = p.mtp();
  stamp_exclusions(hdr);
  if (pkt == 0 && msg.pkt0) {
    if (msg.pkt0->app) p.app = *msg.pkt0->app;
    if (msg.pkt0->stream) hdr.stream = *msg.pkt0->stream;
  }
  if (pkt == 0 && msg.opts.deadline.ns() > 0) {
    hdr.overload.ensure().deadline_ns =
        static_cast<std::uint64_t>(msg.opts.deadline.ns());
  }
  p.header_bytes = transport::mtp_header_bytes(hdr);
  ++pkts_sent_;
  node_.send(std::move(p));
}

void MtpEndpoint::retx_fire(void* self, std::uint64_t id) {
  static_cast<MtpEndpoint*>(self)->on_retx_timer(static_cast<proto::MsgId>(id));
}

/// Per-message expiry check, driven by the shared timer wheel. Replaces the
/// old O(outstanding-messages) periodic retx_scan: each message wakes only
/// when its own oldest in-flight packet may have timed out.
void MtpEndpoint::on_retx_timer(proto::MsgId id) {
  OutgoingMessage* found = outgoing_.find(id);
  if (found == nullptr) return;  // completed between arm and fire
  OutgoingMessage& msg = *found;
  const sim::SimTime deadline = rto();
  const sim::SimTime now = sim_.now();
  bool any_lost = false;
  while (!msg.inflight_fifo.empty()) {
    const std::uint32_t pkt = msg.inflight_fifo.front();
    if (msg.state(pkt) != PktState::kInflight) {
      msg.inflight_fifo.pop_front();
      continue;
    }
    if (now - msg.pkts[pkt].sent_at <= deadline) break;  // FIFO: rest are newer
    msg.inflight_fifo.pop_front();
    msg.set_state(pkt, PktState::kLost);
    const std::int64_t bytes = msg.pkt_len(pkt, cfg_.mss);
    uncharge(msg.charged_path(pkt), msg.opts.tc, bytes);
    grant_uncharge(msg.dst, bytes);
    msg.retx_queue.push_back(pkt);
    enqueue_send(msg, /*urgent=*/true);
    any_lost = true;
    if (telemetry::TraceSink::enabled()) {
      telemetry::TraceEvent ev;
      ev.t = now;
      ev.type = telemetry::TraceEventType::kRto;
      ev.component = node_.name();
      ev.src = node_.id();
      ev.dst = msg.dst;
      ev.msg_id = id;
      ev.pkt_num = pkt;
      ev.bytes = static_cast<std::uint32_t>(bytes);
      ev.tc = msg.opts.tc;
      ev.value = static_cast<std::uint64_t>(deadline.ns());
      telemetry::trace().record(ev);
    }
    penalize(msg.charged_path(pkt), msg.opts.tc, LossKind::kTimeout);
  }
  if (!msg.inflight_fifo.empty()) {
    // The surviving front packet defines the next deadline. (If everything
    // expired, the next transmission rearms in try_send_pkt.)
    msg.arm_retx(sim_, msg.pkts[msg.inflight_fifo.front()].sent_at + deadline,
                 &MtpEndpoint::retx_fire, this);
  }
  if (any_lost) {
    // Consecutive timeouts back the timer off exponentially (a blackholed
    // path must not be hammered at a fixed rate); any new SACK resets it.
    // At most one doubling per scan period: many messages expiring in the
    // same window are one timeout episode, as under the old single scan.
    if (now - last_backoff_at_ >= kRetxScanPeriod) {
      rto_backoff_ = std::min(rto_backoff_ * 2.0, kMaxRtoBackoff);
      last_backoff_at_ = now;
    }
    pump();
  }
}

// ---------------------------------------------------------------- receiver

void MtpEndpoint::on_packet(net::Packet&& pkt) {
  if (!pkt.checksum_ok()) {
    // Payload damaged in flight: count and drop, never deliver. For data,
    // NACK like an NDP trim (header intact, payload gone) so the sender
    // retransmits in ~1 RTT; a corrupted ACK is simply dropped — the
    // sender's timer recovers.
    net::drop(checksum_drops_, net::DropReason::kChecksum, sim_.now(), node_.name(), pkt);
    if (!pkt.mtp().is_ack()) queue_ack(pkt, /*nack=*/true, {}, /*flush_now=*/true);
    return;
  }
  if (pkt.corrupted) ++corrupted_delivered_;  // checksum missed real damage
  if (pkt.mtp().is_ack()) {
    on_ack(pkt);
  } else {
    on_data(std::move(pkt));
  }
}

void MtpEndpoint::queue_ack(const net::Packet& data, bool nack,
                            std::vector<proto::SackEntry> gap_nacks, bool flush_now) {
  const auto& dh = data.mtp();
  // Fast path: this ack would flush immediately (NACKs, completions, and
  // everything when coalescing is off — the default) and nothing is batched
  // for the source, so build it straight from the data packet. Skips the
  // pending_acks_ node churn: a map insert + full Packet copy + erase per
  // received data packet.
  const bool immediate =
      flush_now || nack || !gap_nacks.empty() || cfg_.ack_coalesce <= 1;
  if (immediate && !pending_acks_.contains(data.src)) {
    const proto::SackEntry self{dh.msg_id, dh.pkt_num};
    if (nack) {
      gap_nacks.insert(gap_nacks.begin(), self);
      emit_ack(data, {}, gap_nacks);
    } else {
      emit_ack(data, {&self, 1}, gap_nacks);
    }
    return;
  }
  auto& pa = pending_acks_[data.src];
  pa.last_data = data;  // freshest template: ports, tc, echoed path feedback
  if (nack) {
    pa.nacks.push_back({dh.msg_id, dh.pkt_num});
  } else {
    pa.sacks.push_back({dh.msg_id, dh.pkt_num});
  }
  for (auto& e : gap_nacks) pa.nacks.push_back(e);
  // NACKs and completions flush immediately; otherwise batch to the
  // configured depth with a timer backstop.
  if (flush_now || !pa.nacks.empty() || pa.sacks.size() >= cfg_.ack_coalesce) {
    emit_ack(pa.last_data, pa.sacks, pa.nacks);
    pending_acks_.erase(data.src);
    if (pending_acks_.empty() && ack_flush_task_->running()) ack_flush_task_->stop();
    return;
  }
  if (!ack_flush_task_->running()) ack_flush_task_->start(kAckFlushTimeout);
}

void MtpEndpoint::flush_acks() {
  for (auto& [src, pa] : pending_acks_) {
    emit_ack(pa.last_data, pa.sacks, pa.nacks);
  }
  pending_acks_.clear();
  ack_flush_task_->stop();
}

void MtpEndpoint::emit_ack(const net::Packet& data, std::span<const proto::SackEntry> sacks,
                           std::span<const proto::SackEntry> nacks) {
  net::Packet p = transport::make_ack(data, node_.id(), sacks, nacks);
  auto& hdr = p.mtp();
  if (cfg_.overload.enabled) {
    // Receiver-driven admission: stamp this endpoint's per-sender credit so
    // the sender paces new in-flight bytes to the receiver's service rate.
    hdr.overload.ensure().grant_bytes =
        static_cast<std::uint64_t>(admission_.grant_bytes(sim_.now()));
    ++grants_issued_;
  }
  ++acks_sent_;
  if (telemetry::TraceSink::enabled()) {
    telemetry::TraceEvent ev =
        net::packet_trace_event(sim_.now(), telemetry::TraceEventType::kAck, node_.name(), p);
    ev.value = sacks.size();
    telemetry::trace().record(ev);
    for (const auto& n : nacks) {
      telemetry::TraceEvent ne = ev;
      ne.type = telemetry::TraceEventType::kNack;
      ne.msg_id = n.msg_id;
      ne.pkt_num = n.pkt_num;
      ne.value = 0;
      telemetry::trace().record(ne);
    }
  }
  node_.send(std::move(p));
}

void MtpEndpoint::on_data(net::Packet&& pkt) {
  const auto& hdr = pkt.mtp();
  const transport::MsgKey key{pkt.src, hdr.msg_id};

  // Almost every packet belongs to a message already under reassembly. Such
  // a message is in neither tombstone set (a key enters one only as it
  // leaves incoming_ or instead of entering it, and a tombstoned key is
  // never admitted), and shedding only applies to fresh messages, so a hit
  // skips all three lookups.
  auto it = incoming_.find(key);
  const bool fresh = it == incoming_.end();

  // Packet of a message this endpoint busy-rejected: re-reject to quench the
  // sender (mirrors the completed_ re-ACK). A rejected message must never be
  // partially reassembled, let alone delivered.
  if (fresh && rejected_.contains(key)) {
    send_busy_reject(pkt, proto::kOverloadBusy);
    return;
  }

  // NDP-style trimmed packet: header survived, payload didn't. NACK so the
  // sender retransmits immediately instead of waiting for a timeout.
  const bool trimmed = pkt.payload_bytes == 0 && hdr.pkt_len > 0;
  if (trimmed) {
    queue_ack(pkt, /*nack=*/true, {}, /*flush_now=*/true);
    return;
  }

  // Duplicate of an already-delivered message: re-ACK to quench the sender.
  if (fresh && completed_.contains(key)) {
    queue_ack(pkt, /*nack=*/false, {}, /*flush_now=*/true);
    return;
  }

  if (!transport::Reassembly::well_formed(hdr)) return;

  if (fresh) {
    // Overload shedding — only for messages not yet under reassembly (an
    // admitted message is a commitment: it completes). The shared rule
    // (overload/shed_guard.hpp) counts the reassembly table as work. A shed
    // is an explicit kBusy reject, never a silent drop.
    if (cfg_.overload.enabled) {
      const std::uint8_t shed =
          overload::shed_verdict(cfg_.overload.shed, incoming_.size(), hdr.priority,
                                 hdr.deadline_ns(), sim_.now());
      if (shed != 0) {
        if (shed & proto::kOverloadExpired) ++deadline_expiries_;
        reject_message(key, pkt, shed);
        return;
      }
    }
    it = incoming_.try_emplace(key).first;
    IncomingMessage& msg = it->second;
    msg.start(hdr.msg_len_pkts);
    msg.total_bytes = static_cast<std::int64_t>(hdr.msg_len_bytes);
    msg.priority = hdr.priority;
    msg.tc = hdr.tc;
    msg.src_port = hdr.src_port;
    msg.dst_port = hdr.dst_port;
    msg.first_pkt_at = sim_.now();
  }
  IncomingMessage& msg = it->second;
  if (pkt.app) msg.app = *pkt.app;
  if (hdr.has_stream()) msg.stream = *hdr.stream;
  if (hdr.deadline_ns() != 0) msg.deadline_ns = hdr.deadline_ns();
  if (msg.add(hdr.pkt_num)) {
    if (on_payload) on_payload(pkt.payload_bytes);
    if (cfg_.overload.enabled) {
      admission_.on_delivered(pkt.src, pkt.payload_bytes, sim_.now());
    }
  }

  // Gap NACKs: packets more than kNackGapThreshold behind this arrival that
  // are still missing were almost certainly lost — ask for them now (each at
  // most once; the sender's timer is the backstop if the retransmission is
  // lost too).
  std::vector<proto::SackEntry> gap_nacks;
  if (hdr.pkt_num >= kNackGapThreshold) {
    const std::uint32_t frontier = hdr.pkt_num - kNackGapThreshold;
    while (msg.gap_checked < frontier && gap_nacks.size() < 32) {
      if (!msg.have[msg.gap_checked]) {
        gap_nacks.push_back({hdr.msg_id, msg.gap_checked});
      }
      ++msg.gap_checked;
    }
  }
  const bool completes = msg.complete();
  queue_ack(pkt, /*nack=*/false, std::move(gap_nacks),
            /*flush_now=*/completes || cfg_.ack_coalesce <= 1);

  if (completes) {
    ReceivedMessage done;
    done.src = pkt.src;
    done.msg_id = hdr.msg_id;
    done.bytes = msg.total_bytes;
    done.priority = msg.priority;
    done.tc = msg.tc;
    done.src_port = msg.src_port;
    done.dst_port = msg.dst_port;
    done.app = std::move(msg.app);
    done.stream = std::move(msg.stream);
    done.deadline =
        sim::SimTime::nanoseconds(static_cast<std::int64_t>(msg.deadline_ns));
    done.first_pkt_at = msg.first_pkt_at;
    done.completed_at = sim_.now();
    incoming_.erase(it);
    completed_.insert(key);
    ++msgs_delivered_;
    auto handler = handlers_.find(done.dst_port);
    if (handler != handlers_.end()) {
      handler->second(done);
    } else if (default_handler_) {
      default_handler_(done);
    }
  }
}

void MtpEndpoint::on_ack(const net::Packet& pkt) {
  const auto& hdr = pkt.mtp();

  if (hdr.has_overload()) {
    const auto& ov = *hdr.overload;
    if (cfg_.overload.enabled && ov.grant_bytes > 0) {
      auto [git, fresh_grant] = grants_.try_emplace(
          pkt.src, DstGrant{kUnsolicitedGrantBytes, 0});
      git->second.grant = static_cast<std::int64_t>(ov.grant_bytes);
      (void)fresh_grant;
    }
    if (ov.busy()) {
      // Explicit busy-reject (receiver or in-network device): the message
      // will never be accepted there — abort it instead of retransmitting
      // into the overload. Busy ACKs carry no SACK/feedback payload.
      abort_outgoing(hdr.msg_id, ov.expired());
      pump();
      return;
    }
  }

  if (telemetry::TraceSink::enabled()) {
    for (const auto& pf : hdr.ack_path_feedback()) {
      telemetry::TraceEvent ev;
      ev.t = sim_.now();
      ev.type = telemetry::TraceEventType::kPathletFeedback;
      ev.component = node_.name();
      ev.src = pkt.src;
      ev.dst = pkt.dst;
      ev.msg_id = hdr.msg_id;
      ev.tc = pf.tc;
      ev.flow = pkt.flow_hash;
      ev.pathlet = pf.pathlet;
      ev.value = pf.feedback.value;
      telemetry::trace().record(ev);
    }
  }

  // Learn the destination's current path from the echoed feedback, and feed
  // each pathlet's algorithm. (The ACK's source is the message destination.)
  if (!hdr.ack_path_feedback().empty()) {
    std::vector<proto::PathletId> pathlets;
    pathlets.reserve(hdr.ack_path_feedback().size());
    for (const auto& pf : hdr.ack_path_feedback()) pathlets.push_back(pf.pathlet);
    const PathIndex path = intern_path(pathlets);
    auto [it, fresh] = current_path_.try_emplace(pkt.src, path);
    if (fresh || it->second != path) {
      it->second = path;
      path_changed(pkt.src);
    }
  }

  auto handle_entries = [&](std::span<const proto::SackEntry> entries, bool is_nack) {
    for (const auto& e : entries) {
      OutgoingMessage* found = outgoing_.find(e.msg_id);
      if (found == nullptr) continue;
      OutgoingMessage& msg = *found;
      if (e.pkt_num >= msg.total_pkts) continue;
      const std::int64_t bytes = msg.pkt_len(e.pkt_num, cfg_.mss);

      if (is_nack) {
        if (msg.state(e.pkt_num) == PktState::kInflight) {
          msg.set_state(e.pkt_num, PktState::kLost);
          uncharge(msg.charged_path(e.pkt_num), msg.opts.tc, bytes);
          grant_uncharge(msg.dst, bytes);
          msg.retx_queue.push_back(e.pkt_num);
          enqueue_send(msg, /*urgent=*/true);
          penalize(msg.charged_path(e.pkt_num), msg.opts.tc, LossKind::kTrim);
        }
        continue;
      }

      const PktState prev = msg.state(e.pkt_num);
      if (prev == PktState::kSacked) continue;
      if (prev == PktState::kInflight) {
        uncharge(msg.charged_path(e.pkt_num), msg.opts.tc, bytes);
        grant_uncharge(msg.dst, bytes);
      } else if (prev == PktState::kLost) {
        // Its queued retransmission is moot: the message's next packet
        // changes, or, if this was its last lost packet, the message
        // completes below and its group gets a new front.
        front_changed(msg);
      }
      msg.set_state(e.pkt_num, PktState::kSacked);
      ++msg.sacked;
      rto_backoff_ = 1.0;  // forward progress: leave timeout backoff

      const bool karn_valid = !msg.retransmitted(e.pkt_num);
      const sim::SimTime rtt = sim_.now() - msg.pkts[e.pkt_num].sent_at;
      if (karn_valid) rtt_.sample(rtt);

      // Feed pathlet algorithms: feedback TLVs first, then the ack credit.
      for (const auto& pf : hdr.ack_path_feedback()) {
        cc(cc_[CcKey{pf.pathlet, pf.tc}], pf.feedback.type).on_feedback(pf.feedback, bytes);
        consecutive_losses_[pf.pathlet] = 0;
      }
      if (hdr.ack_path_feedback().empty()) {
        // No pathlet info on this path: evolve whatever the packet was
        // charged to (the per-destination virtual pathlet).
        for (CcState* st : cc_states(msg.charged_path(e.pkt_num), msg.opts.tc)) {
          cc(*st, proto::FeedbackType::kNone).on_ack(bytes, karn_valid ? rtt : rtt_.srtt);
        }
      } else {
        for (const auto& pf : hdr.ack_path_feedback()) {
          cc(cc_[CcKey{pf.pathlet, pf.tc}], pf.feedback.type)
              .on_ack(bytes, karn_valid ? rtt : rtt_.srtt);
        }
      }

      if (msg.sacked == msg.total_pkts) {
        transport::complete_outbound(outgoing_, msg, sim_);  // erases msg
        continue;                // later entries re-resolve via the map lookup
      }
    }
  };

  handle_entries(hdr.sack(), /*is_nack=*/false);
  handle_entries(hdr.nack(), /*is_nack=*/true);
  pump();
}

// ------------------------------------------------------------ mtp::overload

bool MtpEndpoint::grant_admit(net::NodeId dst, std::int64_t bytes) {
  if (!cfg_.overload.enabled) return true;
  auto [it, fresh] = grants_.try_emplace(
      dst, DstGrant{kUnsolicitedGrantBytes, 0});
  (void)fresh;
  const DstGrant& g = it->second;
  // inflight == 0 always admits: a stale or tiny grant can slow a sender to
  // one packet per RTT, but can never wedge it entirely.
  return g.inflight == 0 || g.inflight + bytes <= g.grant;
}

void MtpEndpoint::grant_charge(net::NodeId dst, std::int64_t bytes) {
  if (!cfg_.overload.enabled) return;
  grants_[dst].inflight += bytes;
}

void MtpEndpoint::grant_uncharge(net::NodeId dst, std::int64_t bytes) {
  if (!cfg_.overload.enabled) return;
  auto it = grants_.find(dst);
  if (it != grants_.end()) {
    it->second.inflight = std::max<std::int64_t>(0, it->second.inflight - bytes);
  }
}

/// Busy-reject received for an outgoing message: stop sending it. In-flight
/// packets are uncharged from their pathlets (they will never be SACKed) and
/// the DoneFn is dropped unfired — on_rejected is the completion signal.
void MtpEndpoint::abort_outgoing(proto::MsgId id, bool expired) {
  OutgoingMessage* msg = outgoing_.find(id);
  if (msg == nullptr) return;  // duplicate reject, already aborted
  release(*msg);
  front_changed(*msg);
  const net::NodeId dst = msg->dst;
  ++msgs_rejected_;
  outgoing_.erase(id);
  if (on_rejected) on_rejected(id, dst, expired);
}

void MtpEndpoint::abandon_all() {
  outgoing_.for_each([this](OutgoingMessage& msg) { release(msg); });
  // Every parked group wakes: it parked on a state with bytes in flight, and
  // release() just uncharged all of them.
  outgoing_.clear();  // queued ids of dropped messages are skipped by pump()
}

void MtpEndpoint::release(OutgoingMessage& msg) {
  for (std::uint32_t k = 0; k < msg.total_pkts; ++k) {
    if (msg.state(k) == PktState::kInflight) {
      const std::int64_t bytes = msg.pkt_len(k, cfg_.mss);
      uncharge(msg.charged_path(k), msg.opts.tc, bytes);
      grant_uncharge(msg.dst, bytes);
    }
  }
  sim_.timers().cancel(msg.retx_timer);
}

/// Receiver-side shed: remember the reject (so retransmissions are quenched,
/// and the message can never later be accepted) and tell the sender.
void MtpEndpoint::reject_message(const transport::MsgKey& key, const net::Packet& data,
                                 std::uint8_t flags) {
  rejected_.insert(key);
  ++busy_rejects_sent_;
  send_busy_reject(data, flags);
}

void MtpEndpoint::send_busy_reject(const net::Packet& data, std::uint8_t flags) {
  ++acks_sent_;
  node_.send(transport::make_busy_reject(data, node_, flags));
}

}  // namespace mtp::core
