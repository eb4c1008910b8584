// Subflow-based MPTCP model (RFC 8684 shape, Linked-Increases coupling).
//
// One MptcpSession carries one message over N concurrent TCP subflows opened
// to the same destination. Each subflow is a full TcpConnection — its own
// cwnd, RTO, SACK scoreboard — connected from a distinct ephemeral port, so
// ECMP hashing spreads the subflows across the fabric's parallel paths.
//
// Coupling (RFC 6356 Linked Increases): congestion-avoidance growth on
// subflow i is min(alpha * mss * acked / total_cwnd, mss * acked / w_i) with
//   alpha = total_cwnd * max_j(w_j / rtt_j^2) / (sum_j w_j / rtt_j)^2
// so the aggregate is no more aggressive than one TCP on the best path, and
// capacity shifts away from congested subflows. Slow start and loss response
// stay per-subflow (the hooks touch only the CA increment).
//
// Scheduling: round-robin in kChunkBytes units over established subflows
// with room in their send buffer, skipping subflows inside a post-RTO
// penalty window when an unpenalized alternative exists (the classic
// penalizing scheduler that keeps a path-flap from head-of-line-blocking the
// message). A subflow that dies (TCP's consecutive-timeout abort) returns
// its undelivered bytes to the pool for the survivors; if every subflow is
// gone with bytes still owed, the session respawns a subflow a bounded
// number of times before giving up.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/timer_wheel.hpp"
#include "transport/tcp.hpp"

namespace mtp::transport {

/// One message in flight over N coupled subflows. Completion (delivery of
/// all bytes and close of every subflow, or exhaustion of the respawn
/// budget) fires `done` exactly once.
class MptcpSession {
 public:
  using DoneFn = std::function<void(sim::SimTime fct, std::int64_t bytes)>;

  /// Subflows opened per message.
  static constexpr int kSubflows = 4;
  /// Scheduler granularity: bytes handed to one subflow per round-robin turn.
  static constexpr std::int64_t kChunkBytes = 16'000;
  /// Post-RTO penalty: how long a timed-out subflow is skipped while an
  /// unpenalized alternative exists.
  static constexpr sim::SimTime kPenalty = sim::SimTime::milliseconds(1);
  /// Respawn budget when every subflow has aborted with bytes still owed.
  static constexpr int kMaxRespawns = 4;

  MptcpSession(TcpStack& stack, net::NodeId dst, proto::PortNum dst_port,
               std::int64_t bytes, DoneFn done);
  ~MptcpSession();
  MptcpSession(const MptcpSession&) = delete;
  MptcpSession& operator=(const MptcpSession&) = delete;

  bool finished() const { return finished_; }
  /// True once finish() has fully unwound (done callback returned). Only a
  /// reapable session may be destroyed: `finished_` flips before the done
  /// callback runs, and that callback may re-enter the transport (a
  /// closed-loop sender issues its next message from done) while this
  /// session's subflow connections are still on the call stack.
  bool reapable() const { return reapable_; }
  std::int64_t total_bytes() const { return total_bytes_; }
  int respawns() const { return respawns_; }

 private:
  struct Subflow {
    std::shared_ptr<TcpConnection> conn;
    bool established = false;
    bool closed = false;
    std::int64_t assigned = 0;  ///< bytes handed to this subflow's send()
    sim::SimTime penalized_until;
  };

  void open_subflow();
  void wire(std::size_t idx);
  void feed();
  void check_delivered();
  void on_subflow_closed(std::size_t idx);
  void finish();
  double lia_increase(std::size_t idx, std::int64_t acked) const;
  std::int64_t delivered_bytes() const;
  static void timer_fire(void* self, std::uint64_t);

  TcpStack& stack_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  sim::Simulator& sim_;
  std::vector<Subflow> subs_;
  std::int64_t total_bytes_ = 0;
  std::int64_t remaining_ = 0;  ///< bytes not yet assigned to any subflow
  std::int64_t delivered_by_closed_ = 0;
  std::size_t rr_next_ = 0;
  bool closing_ = false;
  bool finished_ = false;
  bool reapable_ = false;
  int respawns_ = 0;
  sim::SimTime started_at;
  sim::TimerId penalty_timer_;  ///< re-runs feed() when a penalty expires
  DoneFn done_;
};

}  // namespace mtp::transport
