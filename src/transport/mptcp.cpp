#include "transport/mptcp.hpp"

#include <algorithm>
#include <cassert>

namespace mtp::transport {

MptcpSession::MptcpSession(TcpStack& stack, net::NodeId dst,
                           proto::PortNum dst_port, std::int64_t bytes, DoneFn done)
    : stack_(stack),
      dst_(dst),
      dst_port_(dst_port),
      sim_(stack.host().simulator()),
      total_bytes_(bytes),
      remaining_(bytes),
      started_at(stack.host().simulator().now()),
      done_(std::move(done)) {
  assert(bytes > 0 && "empty messages are not a thing");
  subs_.reserve(kSubflows);
  for (int i = 0; i < kSubflows; ++i) open_subflow();
}

MptcpSession::~MptcpSession() { sim_.timers().cancel(penalty_timer_); }

void MptcpSession::open_subflow() {
  // Each connect() takes a fresh ephemeral source port, so each subflow's
  // 5-tuple hashes to its own ECMP path.
  Subflow sf;
  sf.conn = stack_.connect(dst_, dst_port_);
  subs_.push_back(std::move(sf));
  wire(subs_.size() - 1);
}

void MptcpSession::wire(std::size_t idx) {
  TcpConnection& conn = *subs_[idx].conn;
  conn.on_established = [this, idx] {
    Subflow& sf = subs_[idx];
    sf.established = true;
    if (closing_) {
      sf.conn->close();
    } else {
      feed();
    }
  };
  conn.on_send_progress = [this, idx] {
    feed();
    check_delivered();
  };
  conn.on_timeout = [this, idx] {
    subs_[idx].penalized_until = sim_.now() + kPenalty;
  };
  conn.ca_increase = [this, idx](std::int64_t acked) {
    return lia_increase(idx, acked);
  };
  conn.on_closed = [this, idx] { on_subflow_closed(idx); };
}

void MptcpSession::feed() {
  if (finished_ || closing_ || remaining_ <= 0) return;
  const std::size_t n = subs_.size();
  const sim::SimTime now = sim_.now();
  auto eligible = [&](const Subflow& sf) {
    return sf.established && !sf.closed &&
           sf.conn->send_buffer_bytes() < kChunkBytes;
  };
  bool skipped_penalized = false;
  sim::SimTime earliest_penalty;
  bool progress = true;
  while (remaining_ > 0 && progress) {
    progress = false;
    for (std::size_t k = 0; k < n && remaining_ > 0; ++k) {
      const std::size_t i = (rr_next_ + k) % n;
      Subflow& sf = subs_[i];
      if (!eligible(sf)) continue;
      if (now < sf.penalized_until) {
        // Skip only while an unpenalized alternative could take the chunk —
        // a penalized last resort still beats stalling the message.
        bool alternative = false;
        for (std::size_t j = 0; j < n; ++j) {
          if (j != i && eligible(subs_[j]) && now >= subs_[j].penalized_until) {
            alternative = true;
            break;
          }
        }
        if (alternative) {
          if (!skipped_penalized || sf.penalized_until < earliest_penalty) {
            earliest_penalty = sf.penalized_until;
          }
          skipped_penalized = true;
          continue;
        }
      }
      const std::int64_t chunk = std::min(kChunkBytes, remaining_);
      sf.conn->send(chunk);
      sf.assigned += chunk;
      remaining_ -= chunk;
      rr_next_ = (i + 1) % n;
      progress = true;
    }
  }
  if (skipped_penalized && remaining_ > 0 && !sim_.timers().armed(penalty_timer_)) {
    // Liveness: if no subflow ever reports progress again (all stalled in
    // recovery), re-run the scheduler when the penalty lapses so the skipped
    // subflow is handed work rather than the message hanging forever.
    const sim::SimTime floor = sim_.now() + sim_.timers().granularity();
    penalty_timer_ = sim_.timers().arm(std::max(earliest_penalty, floor),
                                       &MptcpSession::timer_fire, this, 0);
  }
}

void MptcpSession::timer_fire(void* self, std::uint64_t) {
  auto* s = static_cast<MptcpSession*>(self);
  s->feed();
  s->check_delivered();
}

std::int64_t MptcpSession::delivered_bytes() const {
  std::int64_t sum = delivered_by_closed_;
  for (const Subflow& sf : subs_) {
    if (!sf.closed && sf.conn) sum += sf.conn->bytes_delivered();
  }
  return sum;
}

void MptcpSession::check_delivered() {
  if (finished_ || closing_) return;
  if (remaining_ > 0 || delivered_bytes() < total_bytes_) return;
  closing_ = true;
  for (Subflow& sf : subs_) {
    if (!sf.closed && sf.established) sf.conn->close();
  }
}

void MptcpSession::on_subflow_closed(std::size_t idx) {
  Subflow& sf = subs_[idx];
  if (sf.closed) return;
  sf.closed = true;
  // An aborted subflow (consecutive-timeout give-up) still owes bytes it
  // accepted but never delivered; put them back in the pool. The shared_ptr
  // is deliberately NOT released here: this runs inside the connection's own
  // on_closed callback (possibly from its RTO trampoline), and dropping the
  // last reference would destroy the connection mid-execution. Dead subflows
  // are freed with the session.
  const std::int64_t delivered = sf.conn->bytes_delivered();
  delivered_by_closed_ += delivered;
  if (sf.assigned > delivered) remaining_ += sf.assigned - delivered;

  bool any_open = false;
  for (const Subflow& s : subs_) {
    if (!s.closed) {
      any_open = true;
      break;
    }
  }
  if (!any_open) {
    if (!closing_ && remaining_ > 0 && respawns_ < kMaxRespawns) {
      // Every path died mid-message: try again on a fresh subflow (fresh
      // ephemeral port, likely a different ECMP path).
      ++respawns_;
      open_subflow();
      return;
    }
    // All subflows closed: the message is done — delivered, or abandoned
    // like a TCP abort (the per-message client counts both as completion).
    finish();
    return;
  }
  if (!closing_) feed();
}

void MptcpSession::finish() {
  if (finished_) return;
  finished_ = true;
  sim_.timers().cancel(penalty_timer_);
  if (done_) {
    auto done = std::move(done_);
    done(sim_.now() - started_at, total_bytes_);
  }
  reapable_ = true;
}

double MptcpSession::lia_increase(std::size_t idx, std::int64_t acked) const {
  const Subflow& self = subs_[idx];
  if (!self.conn) return 0.0;
  const double w_i = std::max(1.0, self.conn->cwnd_bytes());
  double total = 0.0;
  double best = 0.0;    // max_j w_j / rtt_j^2
  double sum_wr = 0.0;  // sum_j w_j / rtt_j
  for (const Subflow& sf : subs_) {
    if (sf.closed || !sf.established || !sf.conn) continue;
    const double w = std::max(1.0, sf.conn->cwnd_bytes());
    // Pre-handshake subflows have no RTT estimate yet; floor keeps the
    // coupling math finite.
    const double rtt = std::max(1e-6, static_cast<double>(sf.conn->srtt().ns()) * 1e-9);
    total += w;
    best = std::max(best, w / (rtt * rtt));
    sum_wr += w / rtt;
  }
  const double reno = static_cast<double>(kTcpMss) * static_cast<double>(acked) / w_i;
  if (total <= 0.0 || sum_wr <= 0.0) return reno;
  const double alpha = total * best / (sum_wr * sum_wr);
  const double coupled =
      alpha * static_cast<double>(kTcpMss) * static_cast<double>(acked) / total;
  return std::min(coupled, reno);
}

}  // namespace mtp::transport
