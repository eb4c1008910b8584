// Simulated TCP (NewReno-style) with optional DCTCP congestion control.
//
// This is the baseline the paper compares MTP against. It models the
// mechanisms the experiments exercise:
//   - three-way handshake (Fig 3's per-message connection cost),
//   - sliding-window byte stream with cumulative ACKs and a receive window
//     (Fig 2's proxy buffering / HOL-blocking trade-off),
//   - slow start, congestion avoidance, fast retransmit/recovery, RTO,
//   - DCTCP: per-segment ECE echo and fraction-based window reduction
//     (Figs 5 and 7 baselines).
//
// Payloads are counted bytes, not buffers; sequence numbers are 64-bit so
// wraparound never occurs in simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "telemetry/metrics.hpp"
#include "transport/message.hpp"

namespace mtp::transport {

inline constexpr std::uint32_t kTcpMss = 1000;         ///< payload bytes per segment
inline constexpr std::uint32_t kTcpHeaderBytes = 40;  ///< accounted TCP/IP header overhead
inline constexpr std::int64_t kTcpInitCwndPkts = 10;
/// Abort the connection after this many consecutive timeouts with no
/// forward progress (a peer that vanished mid-close would otherwise keep
/// the retransmission timer alive forever).
inline constexpr int kTcpMaxConsecutiveTimeouts = 12;
/// DCTCP's alpha EWMA gain.
inline constexpr double kTcpDctcpG = 1.0 / 16.0;

struct TcpConfig {
  /// Receive-buffer limit; the advertised window is this minus unread bytes.
  std::int64_t rcv_buf_bytes = std::int64_t{1} << 40;

  bool dctcp = false;  ///< DCTCP: ECT on data, per-packet ECE echo, alpha-based reduction

  /// Traffic class stamped on every packet this stack emits (DSCP-style
  /// tenant marking; per-TC switch policies key on it).
  proto::TrafficClassId tc = 0;
};

class TcpStack;

/// One TCP connection endpoint (either side).
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  enum class State { kSynSent, kSynRcvd, kEstablished, kFinWait, kClosed };

  /// Application hooks. All optional.
  std::function<void()> on_established;
  std::function<void(std::int64_t bytes)> on_data;     ///< new in-order bytes readable
  std::function<void()> on_send_progress;              ///< snd_una advanced
  std::function<void()> on_closed;                     ///< FIN handshake finished
  /// Congestion-avoidance override: returns the cwnd increment in bytes for
  /// `acked` newly acknowledged bytes. MPTCP's Linked-Increases coupling
  /// hooks in here; unset means classic NewReno mss*acked/cwnd. Slow start,
  /// loss response, and recovery are untouched.
  std::function<double(std::int64_t acked)> ca_increase;
  /// Fires on every retransmission timeout, after the stack's timeout
  /// accounting and before the go-back-N resend (the multipath scheduler's
  /// signal to penalize a subflow).
  std::function<void()> on_timeout;

  State state() const { return state_; }

  /// Cancels the RTO wheel timer: it holds a raw pointer to this connection
  /// (unlike the old heap event, which kept a shared_ptr alive).
  ~TcpConnection();

  /// Queue `bytes` of application data for transmission.
  void send(std::int64_t bytes);

  /// Close after all queued data is delivered (sends FIN).
  void close();

  /// In-order bytes received but not yet consumed by the application.
  std::int64_t available() const { return rx_ready_; }

  /// Consume `bytes` from the receive buffer, opening the advertised window.
  /// Only meaningful when auto-consume is off.
  void consume(std::int64_t bytes);

  /// When on (default), received bytes are consumed immediately (an
  /// infinitely fast application). The Fig 2 proxy turns this off to model a
  /// relay that drains at the downstream rate.
  void set_auto_consume(bool v) { auto_consume_ = v; }

  /// Application bytes queued but not yet transmitted for the first time.
  std::int64_t send_buffer_bytes() const { return tx_queued_ - data_sent(); }
  std::int64_t unacked_bytes() const { return static_cast<std::int64_t>(snd_nxt_ - snd_una_); }
  std::int64_t bytes_delivered() const { return delivered_; }  ///< cumulative acked payload
  double cwnd_bytes() const { return cwnd_; }
  sim::SimTime srtt() const { return rtt_.srtt; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }

  /// Peer-advertised receive window (for tests).
  std::int64_t peer_rwnd() const { return peer_rwnd_; }
  /// DCTCP congestion estimate (0 when not running DCTCP).
  double dctcp_alpha() const { return dctcp_alpha_; }

 private:
  friend class TcpStack;
  TcpConnection(TcpStack& stack, net::NodeId peer, proto::PortNum local_port,
                proto::PortNum peer_port, bool active_open);

  void start_active_open();
  void start_passive_open();
  void on_packet(net::Packet&& pkt);
  void on_ack(const proto::TcpHeader& hdr);
  void on_segment(const net::Packet& pkt);
  void try_send();
  void emit_segment(std::uint64_t seq, std::uint32_t len, bool retransmit);
  void send_control(std::uint8_t flags, std::uint64_t seq);
  void send_ack();
  void maybe_rescue_retransmit();
  void arm_rto();
  void arm_rto_if_idle();
  void disarm_rto();
  void on_rto();
  static void rto_fire(void* self, std::uint64_t);  ///< timer-wheel trampoline
  void enter_established();
  void maybe_deliver();
  void maybe_close();
  void rtt_sample(sim::SimTime sample);
  void dctcp_window_end();
  std::int64_t effective_window() const;
  std::int64_t flight() const { return static_cast<std::int64_t>(snd_nxt_ - snd_una_); }
  /// Bytes believed still in the network. FACK rule: everything below the
  /// forward-most SACKed byte that isn't SACKed is presumed lost, so the
  /// pipe is the unsacked data above fack plus outstanding retransmissions.
  std::int64_t pipe() const {
    if (sacked_.empty()) return flight();
    const std::uint64_t f = std::max(fack_, snd_una_);
    return static_cast<std::int64_t>(snd_nxt_ - f) + retx_inflight_;
  }
  std::int64_t data_sent() const;
  std::uint64_t data_end_seq() const;
  void merge_sack(const std::vector<proto::TcpSackBlock>& blocks);
  void recompute_sacked_bytes();
  struct Hole { std::uint64_t seq; std::uint32_t len; };
  std::optional<Hole> next_hole() const;
  void fill_sack(proto::TcpHeader& hdr) const;
  sim::Simulator& simulator();
  void transmit(net::Packet&& pkt);

  TcpStack& stack_;
  net::NodeId peer_;
  proto::PortNum local_port_;
  proto::PortNum peer_port_;
  State state_;

  // --- Sender.
  std::int64_t tx_queued_ = 0;       ///< total bytes handed to send() so far
  std::uint64_t snd_una_ = 0;        ///< first unacked sequence number
  std::uint64_t snd_nxt_ = 0;        ///< next sequence to send
  double cwnd_ = 0;                  ///< congestion window, bytes
  double ssthresh_ = 0;
  std::int64_t peer_rwnd_ = std::int64_t{1} << 40;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;        ///< recovery point (snd_nxt at loss detection)

  // --- SACK scoreboard (RFC 2018 + FACK-style pipe accounting).
  std::map<std::uint64_t, std::uint64_t> sacked_;  ///< [start, end) above snd_una_
  std::int64_t sacked_bytes_ = 0;
  std::uint64_t high_retx_ = 0;      ///< end of the highest hole retransmitted this episode
  std::uint64_t fack_ = 0;           ///< forward-most SACKed byte (holes below presumed lost)
  std::int64_t retx_inflight_ = 0;   ///< recovery retransmissions still unaccounted
  sim::SimTime last_una_tx_at_;      ///< last (re)transmission covering snd_una_
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  int consecutive_timeouts_ = 0;
  std::int64_t delivered_ = 0;
  bool fin_pending_ = false;
  bool fin_sent_ = false;

  // --- RTT estimation (Karn's algorithm: samples only from non-rexmitted).
  RtoEstimator rtt_;
  sim::SimTime rto_;
  std::uint64_t rtt_seq_ = 0;        ///< measuring segment end-seq; 0 = none
  sim::SimTime rtt_sent_at_;
  sim::TimerId rto_timer_;  ///< on the simulator's shared timer wheel
  double rto_backoff_ = 1.0;

  // --- DCTCP sender state.
  double dctcp_alpha_ = 0.0;
  std::int64_t dctcp_acked_total_ = 0;
  std::int64_t dctcp_acked_ce_ = 0;
  std::uint64_t dctcp_window_end_ = 0;

  // --- Passive-open accept callback (server side only).
  std::function<void(std::shared_ptr<TcpConnection>)> accept_fn_;

  // --- Receiver.
  std::uint64_t rcv_nxt_ = 0;
  std::int64_t rx_delivered_ = 0;  ///< in-order bytes already surfaced to the app
  std::map<std::uint64_t, std::uint64_t> ooo_;  ///< out-of-order [start, end), coalesced
  std::uint64_t last_ooo_seq_ = 0;  ///< start of the most recent out-of-order segment
  std::int64_t rx_ready_ = 0;        ///< in-order, unconsumed bytes
  bool auto_consume_ = true;
  bool peer_fin_ = false;
  std::uint64_t fin_seq_ = 0;
  bool last_seg_ce_ = false;         ///< DCTCP: echo CE state of the segment acked
};

/// Per-host TCP stack: demultiplexes packets to connections and listeners.
class TcpStack {
 public:
  using AcceptFn = std::function<void(std::shared_ptr<TcpConnection>)>;

  TcpStack(net::Host& host, TcpConfig cfg);

  /// Active open; on_established fires when the handshake completes.
  std::shared_ptr<TcpConnection> connect(net::NodeId dst, proto::PortNum dst_port);

  /// Passive open: accept connections on `port`.
  void listen(proto::PortNum port, AcceptFn on_accept);

  const TcpConfig& config() const { return cfg_; }
  net::Host& host() { return host_; }
  std::size_t open_connections() const { return conns_.size(); }

  // Stack-wide aggregates across all connections, living and closed (the
  // per-connection counters die with the connection object).
  std::uint64_t total_pkts_sent() const { return pkts_sent_; }
  std::uint64_t total_retransmits() const { return retransmits_; }
  std::uint64_t total_timeouts() const { return timeouts_; }
  /// Packets dropped before demux on payload checksum mismatch; loss
  /// recovery (SACK/RTO) retransmits them like any other drop.
  std::uint64_t checksum_drops() const { return checksum_drops_; }

 private:
  friend class TcpConnection;
  struct ConnKey {
    net::NodeId peer;
    proto::PortNum peer_port;
    proto::PortNum local_port;
    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const {
      return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.peer) << 32) |
                                        (static_cast<std::uint64_t>(k.peer_port) << 16) |
                                        k.local_port);
    }
  };

  void on_packet(net::Packet&& pkt);
  void remove(const ConnKey& key) { conns_.erase(key); }

  net::Host& host_;
  TcpConfig cfg_;
  std::unordered_map<ConnKey, std::shared_ptr<TcpConnection>, ConnKeyHash> conns_;
  std::unordered_map<proto::PortNum, AcceptFn> listeners_;
  proto::PortNum next_ephemeral_ = 10000;
  std::uint64_t pkts_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t checksum_drops_ = 0;
  telemetry::Registration metrics_;
};

}  // namespace mtp::transport
