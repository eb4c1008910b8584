#include "transport/tcp.hpp"

#include <algorithm>
#include <cassert>

#include "net/drop.hpp"
#include "telemetry/trace.hpp"

namespace mtp::transport {

namespace {
// Sequence-space layout: SYN occupies [0,1); application data occupies
// [1, 1+N); FIN occupies [1+N, 2+N). 64-bit sequence numbers never wrap in
// simulation, so no modular comparisons are needed.
constexpr std::uint64_t kDataStart = 1;

std::uint64_t make_flow_hash(net::NodeId a, proto::PortNum ap, net::NodeId b,
                             proto::PortNum bp) {
  std::uint64_t h = (static_cast<std::uint64_t>(a) << 48) ^
                    (static_cast<std::uint64_t>(b) << 32) ^
                    (static_cast<std::uint64_t>(ap) << 16) ^ bp;
  h ^= h >> 31;
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return h;
}
}  // namespace

// ---------------------------------------------------------------- TcpStack

TcpStack::TcpStack(net::Host& host, TcpConfig cfg) : host_(host), cfg_(cfg) {
  host_.set_tcp_handler([this](net::Packet&& pkt) { on_packet(std::move(pkt)); });
  metrics_ = telemetry::MetricRegistry::global().add(
      "tcp", host_.name(), [this](std::vector<telemetry::MetricSample>& out) {
        using telemetry::MetricKind;
        out.push_back({"pkts_sent", MetricKind::kCounter,
                       static_cast<double>(pkts_sent_)});
        out.push_back({"retransmits", MetricKind::kCounter,
                       static_cast<double>(retransmits_)});
        out.push_back({"timeouts", MetricKind::kCounter,
                       static_cast<double>(timeouts_)});
        out.push_back({"checksum_drops", MetricKind::kCounter,
                       static_cast<double>(checksum_drops_)});
        out.push_back({"open_connections", MetricKind::kGauge,
                       static_cast<double>(conns_.size())});
      });
}

std::shared_ptr<TcpConnection> TcpStack::connect(net::NodeId dst, proto::PortNum dst_port) {
  const proto::PortNum src_port = next_ephemeral_++;
  auto conn = std::shared_ptr<TcpConnection>(
      new TcpConnection(*this, dst, src_port, dst_port, /*active_open=*/true));
  conns_[ConnKey{dst, dst_port, src_port}] = conn;
  conn->start_active_open();
  return conn;
}

void TcpStack::listen(proto::PortNum port, AcceptFn on_accept) {
  listeners_[port] = std::move(on_accept);
}

void TcpStack::on_packet(net::Packet&& pkt) {
  if (!pkt.checksum_ok()) {
    // Damaged segment: drop before demux (SYNs, ACKs and data alike) and
    // let normal loss recovery retransmit. Never surfaces to a connection.
    net::drop(checksum_drops_, net::DropReason::kChecksum, host_.simulator().now(),
              host_.name(), pkt);
    return;
  }
  const auto& hdr = pkt.tcp();
  const ConnKey key{pkt.src, hdr.src_port, hdr.dst_port};
  auto it = conns_.find(key);
  if (it != conns_.end()) {
    // Keep the connection alive through the callback even if it removes
    // itself from the map while handling this packet.
    auto conn = it->second;
    conn->on_packet(std::move(pkt));
    return;
  }
  if (hdr.has(proto::kTcpSyn) && !hdr.has(proto::kTcpAck)) {
    auto lit = listeners_.find(hdr.dst_port);
    if (lit == listeners_.end()) return;  // no listener: drop silently
    auto conn = std::shared_ptr<TcpConnection>(
        new TcpConnection(*this, pkt.src, hdr.dst_port, hdr.src_port, /*active_open=*/false));
    conns_[key] = conn;
    conn->accept_fn_ = lit->second;
    conn->start_passive_open();
    return;
  }
  if (hdr.has(proto::kTcpFin)) {
    // Stray FIN for a connection this side already closed and forgot
    // (poor man's TIME_WAIT): re-ACK it so the peer's teardown completes
    // instead of retrying until its timeout budget runs out.
    net::Packet ack;
    ack.src = host_.id();
    ack.dst = pkt.src;
    ack.header_bytes = kTcpHeaderBytes;
    ack.tc = cfg_.tc;
    proto::TcpHeader h;
    h.src_port = hdr.dst_port;
    h.dst_port = hdr.src_port;
    h.flags = proto::kTcpAck;
    h.ack = hdr.seq + hdr.payload + 1;
    ack.header = h;
    host_.send(std::move(ack));
  }
  // Anything else for an unknown connection (stray ACKs after close) drops.
}

// ----------------------------------------------------------- TcpConnection

TcpConnection::TcpConnection(TcpStack& stack, net::NodeId peer, proto::PortNum local_port,
                             proto::PortNum peer_port, bool active_open)
    : stack_(stack),
      peer_(peer),
      local_port_(local_port),
      peer_port_(peer_port),
      state_(active_open ? State::kSynSent : State::kSynRcvd) {
  cwnd_ = static_cast<double>(kTcpInitCwndPkts) * kTcpMss;
  ssthresh_ = 1e18;
  rto_ = kMinRto.scaled(10.0);  // conservative until the first RTT sample
}

TcpConnection::~TcpConnection() { disarm_rto(); }

sim::Simulator& TcpConnection::simulator() { return stack_.host().simulator(); }

std::int64_t TcpConnection::data_sent() const {
  if (snd_nxt_ <= kDataStart) return 0;
  return static_cast<std::int64_t>(std::min(snd_nxt_ - kDataStart,
                                            static_cast<std::uint64_t>(tx_queued_)));
}

std::uint64_t TcpConnection::data_end_seq() const {
  return kDataStart + static_cast<std::uint64_t>(tx_queued_);
}

void TcpConnection::start_active_open() {
  send_control(proto::kTcpSyn, /*seq=*/0);
  snd_una_ = 0;
  snd_nxt_ = 1;
  arm_rto();
}

void TcpConnection::start_passive_open() {
  rcv_nxt_ = 1;  // peer's SYN consumed
  send_control(proto::kTcpSyn | proto::kTcpAck, /*seq=*/0);
  snd_una_ = 0;
  snd_nxt_ = 1;
  arm_rto();
}

void TcpConnection::send(std::int64_t bytes) {
  assert(bytes >= 0);
  assert(!fin_pending_ && !fin_sent_ && "send() after close()");
  tx_queued_ += bytes;
  if (state_ == State::kEstablished) try_send();
}

void TcpConnection::close() {
  if (fin_pending_ || fin_sent_) return;
  fin_pending_ = true;
  if (state_ == State::kEstablished) try_send();
}

void TcpConnection::consume(std::int64_t bytes) {
  assert(bytes <= rx_ready_);
  rx_ready_ -= bytes;
  // Window update so a sender blocked on zero window resumes promptly.
  if (state_ == State::kEstablished || state_ == State::kFinWait) send_ack();
}

std::int64_t TcpConnection::effective_window() const {
  return std::min(static_cast<std::int64_t>(cwnd_), peer_rwnd_);
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kFinWait) return;
  bool sent_any = false;
  while (true) {
    // In recovery, retransmitting SACK holes takes precedence over new data.
    if (in_recovery_) {
      const auto hole = next_hole();
      if (hole && pipe() + hole->len <= static_cast<std::int64_t>(cwnd_)) {
        emit_segment(hole->seq, hole->len, /*retransmit=*/true);
        high_retx_ = hole->seq + hole->len;
        retx_inflight_ += hole->len;
        sent_any = true;
        continue;
      }
    }
    const std::uint64_t data_end = data_end_seq();
    if (snd_nxt_ >= data_end) break;  // all data transmitted at least once
    const std::int64_t wnd = effective_window();
    if (pipe() >= wnd) break;
    const std::int64_t window_room = wnd - pipe();
    const std::uint64_t remaining = data_end - snd_nxt_;
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({kTcpMss, remaining,
                                 static_cast<std::uint64_t>(window_room)}));
    if (len == 0) break;
    emit_segment(snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += len;
    sent_any = true;
  }
  // FIN rides after the last data byte has been transmitted.
  if (fin_pending_ && !fin_sent_ && snd_nxt_ == data_end_seq()) {
    send_control(proto::kTcpFin | proto::kTcpAck, snd_nxt_);
    snd_nxt_ += 1;
    fin_sent_ = true;
    state_ = State::kFinWait;
    sent_any = true;
  }
  if (sent_any) {
    arm_rto_if_idle();
  } else if (flight() == 0 && snd_nxt_ < data_end_seq() && effective_window() == 0) {
    // Zero-window deadlock guard: probe via the retransmission timer.
    arm_rto_if_idle();
  }
}

void TcpConnection::emit_segment(std::uint64_t seq, std::uint32_t len, bool retransmit) {
  const auto& cfg = stack_.config();
  net::Packet pkt;
  pkt.src = stack_.host().id();
  pkt.dst = peer_;
  pkt.payload_bytes = len;
  pkt.header_bytes = kTcpHeaderBytes;
  pkt.ecn = cfg.dctcp ? net::Ecn::kEct : net::Ecn::kNotEct;
  pkt.tc = cfg.tc;
  pkt.flow_hash = make_flow_hash(pkt.src, local_port_, peer_, peer_port_);
  proto::TcpHeader hdr;
  hdr.src_port = local_port_;
  hdr.dst_port = peer_port_;
  hdr.seq = seq;
  hdr.ack = rcv_nxt_;
  hdr.flags = proto::kTcpAck;
  hdr.rwnd = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, cfg.rcv_buf_bytes - rx_ready_));
  hdr.payload = len;
  fill_sack(hdr);
  pkt.header = hdr;
  if (retransmit) {
    ++retransmits_;
    ++stack_.retransmits_;
    rtt_seq_ = 0;  // Karn: invalidate the in-flight RTT measurement
  } else if (rtt_seq_ == 0) {
    rtt_seq_ = seq + len;
    rtt_sent_at_ = simulator().now();
  }
  if (seq <= snd_una_ && seq + len > snd_una_) last_una_tx_at_ = simulator().now();
  transmit(std::move(pkt));
}

void TcpConnection::send_control(std::uint8_t flags, std::uint64_t seq) {
  const auto& cfg = stack_.config();
  net::Packet pkt;
  pkt.src = stack_.host().id();
  pkt.dst = peer_;
  pkt.payload_bytes = 0;
  pkt.header_bytes = kTcpHeaderBytes;
  pkt.ecn = net::Ecn::kNotEct;  // control packets are not ECN-capable
  pkt.tc = cfg.tc;
  pkt.flow_hash = make_flow_hash(pkt.src, local_port_, peer_, peer_port_);
  proto::TcpHeader hdr;
  hdr.src_port = local_port_;
  hdr.dst_port = peer_port_;
  hdr.seq = seq;
  hdr.ack = rcv_nxt_;
  hdr.flags = flags;
  hdr.rwnd = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, cfg.rcv_buf_bytes - rx_ready_));
  fill_sack(hdr);
  pkt.header = hdr;
  transmit(std::move(pkt));
}

void TcpConnection::send_ack() {
  std::uint8_t flags = proto::kTcpAck;
  // DCTCP: the ACK echoes the CE state of the segment it acknowledges.
  if (stack_.config().dctcp && last_seg_ce_) flags |= proto::kTcpEce;
  send_control(flags, snd_nxt_);
}

void TcpConnection::transmit(net::Packet&& pkt) {
  ++stack_.pkts_sent_;
  stack_.host().send(std::move(pkt));
}

void TcpConnection::on_packet(net::Packet&& pkt) {
  const proto::TcpHeader hdr = pkt.tcp();

  // --- Handshake transitions.
  if (state_ == State::kSynSent) {
    if (hdr.has(proto::kTcpSyn) && hdr.has(proto::kTcpAck) && hdr.ack >= 1) {
      rcv_nxt_ = 1;
      snd_una_ = 1;
      peer_rwnd_ = static_cast<std::int64_t>(hdr.rwnd);
      rtt_sample(simulator().now() - rtt_sent_at_);  // SYN round trip
      disarm_rto();
      enter_established();
      send_ack();
      try_send();
    }
    return;
  }
  if (state_ == State::kSynRcvd) {
    if (hdr.has(proto::kTcpAck) && hdr.ack >= 1) {
      snd_una_ = std::max(snd_una_, std::uint64_t{1});
      peer_rwnd_ = static_cast<std::int64_t>(hdr.rwnd);
      disarm_rto();
      enter_established();
      if (accept_fn_) accept_fn_(shared_from_this());
      // Fall through: the third-handshake packet may carry data.
    } else if (hdr.has(proto::kTcpSyn) && !hdr.has(proto::kTcpAck)) {
      send_control(proto::kTcpSyn | proto::kTcpAck, 0);  // retransmitted SYN
      return;
    } else {
      return;
    }
  }
  if (state_ == State::kClosed) return;

  if (hdr.has(proto::kTcpAck)) on_ack(hdr);
  if (hdr.payload > 0 || hdr.has(proto::kTcpFin)) on_segment(pkt);
  maybe_close();
}

void TcpConnection::on_ack(const proto::TcpHeader& hdr) {
  const auto& cfg = stack_.config();
  peer_rwnd_ = static_cast<std::int64_t>(hdr.rwnd);

  const std::size_t sack_intervals_before = sacked_.size();
  const std::int64_t sacked_bytes_before = sacked_bytes_;
  if (!hdr.sack().empty()) merge_sack(hdr.sack());

  if (hdr.ack > snd_una_) {
    const std::int64_t acked = static_cast<std::int64_t>(hdr.ack - snd_una_);
    snd_una_ = hdr.ack;
    consecutive_timeouts_ = 0;
    // A cumulative advance in recovery means retransmitted holes arrived:
    // drain the retransmission-inflight estimate by the acked amount.
    if (in_recovery_) retx_inflight_ = std::max<std::int64_t>(0, retx_inflight_ - acked);
    // Prune scoreboard below the new cumulative ack.
    while (!sacked_.empty() && sacked_.begin()->second <= snd_una_) {
      sacked_.erase(sacked_.begin());
    }
    if (!sacked_.empty() && sacked_.begin()->first < snd_una_) {
      const auto end = sacked_.begin()->second;
      sacked_.erase(sacked_.begin());
      sacked_.emplace(snd_una_, end);
    }
    recompute_sacked_bytes();
    delivered_ = static_cast<std::int64_t>(
        std::min(snd_una_ >= kDataStart ? snd_una_ - kDataStart : 0,
                 static_cast<std::uint64_t>(tx_queued_)));
    dup_acks_ = 0;
    rto_backoff_ = 1.0;

    // RTT sample (Karn-valid only).
    if (rtt_seq_ != 0 && snd_una_ >= rtt_seq_) {
      rtt_sample(simulator().now() - rtt_sent_at_);
      rtt_seq_ = 0;
    }

    // --- DCTCP accounting.
    if (cfg.dctcp) {
      dctcp_acked_total_ += acked;
      if (hdr.has(proto::kTcpEce)) dctcp_acked_ce_ += acked;
      if (snd_una_ >= dctcp_window_end_) dctcp_window_end();
    }

    if (in_recovery_) {
      if (snd_una_ >= recover_) {
        // Full ACK: leave recovery.
        in_recovery_ = false;
        cwnd_ = ssthresh_;
        retx_inflight_ = 0;
      }
      // Partial ACKs: try_send()'s hole loop retransmits the next holes
      // under the pipe limit — no per-ack special casing needed with SACK.
    } else {
      // Normal growth: slow start then congestion avoidance.
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(acked);
      } else if (ca_increase) {
        cwnd_ += ca_increase(acked);
      } else {
        cwnd_ += static_cast<double>(kTcpMss) * static_cast<double>(acked) / cwnd_;
      }
    }

    if (flight() > 0) {
      arm_rto();
    } else {
      disarm_rto();
    }
    if (on_send_progress) on_send_progress();
    if (in_recovery_ && snd_una_ < recover_) {
      // Partial ACK: the hole at the new snd_una_ may itself have been a
      // retransmission that was lost; note when we last sent it.
      maybe_rescue_retransmit();
    }
  } else if (hdr.ack == snd_una_ && flight() > 0 && hdr.payload == 0 &&
             !hdr.has(proto::kTcpFin) && !hdr.has(proto::kTcpSyn)) {
    // Duplicate ACK (pure ack, no window change of interest, or new SACK).
    const bool new_sack_info = sacked_.size() != sack_intervals_before ||
                               sacked_bytes_ != sacked_bytes_before;
    ++dup_acks_;
    if (!in_recovery_ && (dup_acks_ >= 3 || (new_sack_info && dup_acks_ >= 2))) {
      in_recovery_ = true;
      recover_ = snd_nxt_;
      high_retx_ = snd_una_;
      retx_inflight_ = 0;
      ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * kTcpMss);
      cwnd_ = ssthresh_;
      if (snd_una_ >= data_end_seq() && fin_sent_) {
        send_control(proto::kTcpFin | proto::kTcpAck, snd_una_);
      }
      arm_rto();
    } else if (in_recovery_) {
      maybe_rescue_retransmit();
    }
  }
  try_send();
}

// Lost-retransmission detection (RACK-flavoured): in recovery, if the
// segment at snd_una_ was last transmitted more than ~2 smoothed RTTs ago
// and ACKs are still flowing, its retransmission was itself lost — resend
// it now instead of stalling until the RTO.
void TcpConnection::maybe_rescue_retransmit() {
  if (!rtt_.valid || snd_una_ >= data_end_seq()) return;
  const sim::SimTime threshold = std::max(rtt_.srtt * 2, kMinRto / 2);
  if (simulator().now() - last_una_tx_at_ < threshold) return;
  std::uint64_t hole_end = data_end_seq();
  const auto it = sacked_.upper_bound(snd_una_);
  if (it != sacked_.end()) hole_end = std::min(hole_end, it->first);
  const std::uint32_t len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(kTcpMss, hole_end - snd_una_));
  emit_segment(snd_una_, len, /*retransmit=*/true);
  retx_inflight_ += len;
}

void TcpConnection::merge_sack(const std::vector<proto::TcpSackBlock>& blocks) {
  for (const auto& b : blocks) {
    std::uint64_t s = std::max(b.start, snd_una_);
    std::uint64_t e = b.end;
    if (e <= s) continue;
    auto it = sacked_.lower_bound(s);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= s) {
        s = prev->first;
        e = std::max(e, prev->second);
        it = sacked_.erase(prev);
      }
    }
    while (it != sacked_.end() && it->first <= e) {
      e = std::max(e, it->second);
      it = sacked_.erase(it);
    }
    sacked_.emplace(s, e);
    fack_ = std::max(fack_, e);
  }
  recompute_sacked_bytes();
}

void TcpConnection::recompute_sacked_bytes() {
  sacked_bytes_ = 0;
  for (const auto& [s, e] : sacked_) {
    sacked_bytes_ += static_cast<std::int64_t>(e - std::max(s, snd_una_));
  }
}

std::optional<TcpConnection::Hole> TcpConnection::next_hole() const {
  const std::uint64_t limit = std::min({recover_, snd_nxt_, data_end_seq()});
  std::uint64_t start = std::max(snd_una_, high_retx_);
  // Skip over SACKed ranges covering `start`.
  while (start < limit) {
    auto it = sacked_.upper_bound(start);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > start) {
        start = prev->second;
        continue;
      }
    }
    break;
  }
  if (start >= limit) return std::nullopt;
  const auto it = sacked_.upper_bound(start);
  const std::uint64_t hole_end =
      it == sacked_.end() ? limit : std::min(it->first, limit);
  const std::uint32_t len =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(kTcpMss, hole_end - start));
  return Hole{start, len};
}

void TcpConnection::fill_sack(proto::TcpHeader& hdr) const {
  if (ooo_.empty()) return;
  // First block: the one containing the most recently received segment
  // (RFC 2018). Remaining slots: forward-most blocks, so the sender's FACK
  // accounting learns how far delivery has progressed.
  auto recent = ooo_.upper_bound(last_ooo_seq_);
  if (recent != ooo_.begin()) {
    recent = std::prev(recent);
    if (recent->second > last_ooo_seq_) {
      hdr.sack().push_back({recent->first, recent->second});
    }
  }
  for (auto it = ooo_.rbegin();
       it != ooo_.rend() && hdr.sack().size() < proto::TcpHeader::kMaxSackBlocks; ++it) {
    const proto::TcpSackBlock b{it->first, it->second};
    if (!hdr.sack().empty() && hdr.sack().front() == b) continue;
    hdr.sack().push_back(b);
  }
}

void TcpConnection::dctcp_window_end() {
  if (dctcp_acked_total_ > 0) {
    const double f = static_cast<double>(dctcp_acked_ce_) /
                     static_cast<double>(dctcp_acked_total_);
    dctcp_alpha_ = (1.0 - kTcpDctcpG) * dctcp_alpha_ + kTcpDctcpG * f;
    if (dctcp_acked_ce_ > 0) {
      cwnd_ = std::max(cwnd_ * (1.0 - dctcp_alpha_ / 2.0),
                       static_cast<double>(kTcpMss));
      ssthresh_ = cwnd_;
    }
  }
  dctcp_acked_total_ = 0;
  dctcp_acked_ce_ = 0;
  dctcp_window_end_ = snd_nxt_;
}

void TcpConnection::on_segment(const net::Packet& pkt) {
  const proto::TcpHeader& hdr = pkt.tcp();
  last_seg_ce_ = pkt.ecn == net::Ecn::kCe;

  if (hdr.payload > 0) {
    const std::uint64_t seg_start = hdr.seq;
    const std::uint64_t seg_end = hdr.seq + hdr.payload;
    if (seg_end > rcv_nxt_) {
      if (seg_start <= rcv_nxt_) {
        rcv_nxt_ = seg_end;
        // Merge any out-of-order intervals now contiguous.
        auto it = ooo_.begin();
        while (it != ooo_.end() && it->first <= rcv_nxt_) {
          rcv_nxt_ = std::max(rcv_nxt_, it->second);
          it = ooo_.erase(it);
        }
      } else {
        // Out of order: merge the interval into the coalesced set and
        // remember it as the most recent block (RFC 2018: report it first).
        std::uint64_t s = seg_start;
        std::uint64_t e = seg_end;
        auto it = ooo_.lower_bound(s);
        if (it != ooo_.begin()) {
          auto prev = std::prev(it);
          if (prev->second >= s) {
            s = prev->first;
            e = std::max(e, prev->second);
            it = ooo_.erase(prev);
          }
        }
        while (it != ooo_.end() && it->first <= e) {
          e = std::max(e, it->second);
          it = ooo_.erase(it);
        }
        ooo_.emplace(s, e);
        last_ooo_seq_ = seg_start;
      }
    }
    maybe_deliver();
  }

  if (hdr.has(proto::kTcpFin)) {
    const std::uint64_t fin_seq = hdr.seq;
    if (fin_seq <= rcv_nxt_ && !peer_fin_) {
      if (fin_seq == rcv_nxt_) rcv_nxt_ += 1;
      peer_fin_ = true;
      // Passive close: if this side has nothing more to send, FIN back.
      if (!fin_pending_ && !fin_sent_ && send_buffer_bytes() == 0) close();
    } else if (fin_seq < rcv_nxt_) {
      peer_fin_ = true;
    }
  }
  send_ack();
}

void TcpConnection::maybe_deliver() {
  // New in-order payload bytes: everything below rcv_nxt_ minus what the
  // application has already seen (SYN consumed one sequence number).
  const std::int64_t in_order_data =
      static_cast<std::int64_t>(rcv_nxt_ >= kDataStart ? rcv_nxt_ - kDataStart : 0);
  const std::int64_t fresh = in_order_data - rx_delivered_;
  if (fresh <= 0) return;
  rx_delivered_ = in_order_data;
  rx_ready_ += fresh;
  if (on_data) on_data(fresh);
  if (auto_consume_ && rx_ready_ > 0) rx_ready_ = 0;
}

void TcpConnection::maybe_close() {
  // Fully closed once our FIN is acked and the peer's FIN was received.
  if (fin_sent_ && peer_fin_ && snd_una_ >= data_end_seq() + 1 &&
      state_ != State::kClosed) {
    state_ = State::kClosed;
    disarm_rto();
    stack_.remove(TcpStack::ConnKey{peer_, peer_port_, local_port_});
    if (on_closed) on_closed();
  }
}

void TcpConnection::rtt_sample(sim::SimTime sample) {
  rtt_.sample(sample);
  rto_ = rtt_.srtt + rtt_.rttvar * 4;
  rto_ = std::max(rto_, kMinRto);
  rto_ = std::min(rto_, kMaxRto);
}

void TcpConnection::rto_fire(void* self, std::uint64_t) {
  static_cast<TcpConnection*>(self)->on_rto();
}

// Restart the timer: tracks the oldest unacked segment, so it is reset on
// cumulative ACK advance — never on mere (re)transmission, which would
// starve it while the sender keeps pouring new data. Lives on the shared
// timer wheel (fires up to one wheel granularity late).
void TcpConnection::arm_rto() {
  disarm_rto();
  rto_timer_ = simulator().timers().arm(
      simulator().now() + rto_.scaled(rto_backoff_), &TcpConnection::rto_fire, this);
}

/// Arm only if no timer is pending (used on transmissions).
void TcpConnection::arm_rto_if_idle() {
  if (!simulator().timers().armed(rto_timer_)) arm_rto();
}

void TcpConnection::disarm_rto() {
  simulator().timers().cancel(rto_timer_);
}

void TcpConnection::on_rto() {
  ++timeouts_;
  ++stack_.timeouts_;
  if (on_timeout) on_timeout();
  if (telemetry::TraceSink::enabled()) {
    telemetry::TraceEvent ev;
    ev.t = simulator().now();
    ev.type = telemetry::TraceEventType::kRto;
    ev.component = stack_.host().name();
    ev.src = stack_.host().id();
    ev.dst = peer_;
    ev.flow = make_flow_hash(stack_.host().id(), local_port_, peer_, peer_port_);
    ev.value = static_cast<std::uint64_t>(flight());
    telemetry::trace().record(ev);
  }
  if (++consecutive_timeouts_ > kTcpMaxConsecutiveTimeouts) {
    // Peer unreachable (or gone mid-close): abort instead of retrying
    // forever — otherwise the simulation never quiesces. The stack may hold
    // the only reference, so keep this connection alive through on_closed.
    const auto self = shared_from_this();
    state_ = State::kClosed;
    disarm_rto();
    stack_.remove(TcpStack::ConnKey{peer_, peer_port_, local_port_});
    if (on_closed) on_closed();
    return;
  }
  rto_backoff_ = std::min(rto_backoff_ * 2.0, 64.0);

  if (state_ == State::kSynSent) {
    send_control(proto::kTcpSyn, 0);
    arm_rto();
    return;
  }
  if (state_ == State::kSynRcvd) {
    send_control(proto::kTcpSyn | proto::kTcpAck, 0);
    arm_rto();
    return;
  }

  if (flight() == 0 && snd_nxt_ < data_end_seq() && effective_window() == 0) {
    // Zero-window probe: one byte beyond the window.
    emit_segment(snd_nxt_, 1, /*retransmit=*/false);
    snd_nxt_ += 1;
    arm_rto();
    return;
  }
  if (flight() == 0) return;  // spurious (everything got acked in flight)

  // Timeout: multiplicative decrease, go-back-N from snd_una_. The SACK
  // scoreboard is discarded (receiver reneging is legal; be safe).
  ssthresh_ = std::max(static_cast<double>(flight()) / 2.0, 2.0 * kTcpMss);
  cwnd_ = kTcpMss;
  in_recovery_ = false;
  dup_acks_ = 0;
  sacked_.clear();
  sacked_bytes_ = 0;
  high_retx_ = 0;
  fack_ = 0;
  retx_inflight_ = 0;
  const std::uint64_t end = data_end_seq();
  if (snd_una_ < end) {
    snd_nxt_ = snd_una_;
    fin_sent_ = false;  // FIN (if sent) must also be retransmitted in order
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kTcpMss, end - snd_nxt_));
    emit_segment(snd_nxt_, len, /*retransmit=*/true);
    snd_nxt_ += len;
  } else if (fin_sent_) {
    send_control(proto::kTcpFin | proto::kTcpAck, end);
  }
  arm_rto();
  try_send();
}

void TcpConnection::enter_established() {
  state_ = State::kEstablished;
  dctcp_window_end_ = snd_nxt_;
  if (on_established) on_established();
}

}  // namespace mtp::transport
