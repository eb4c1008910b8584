// mtp::stream — ordered, reliable record streams over MTP messages.
//
// The paper's message transport deliberately has no ordering or streaming:
// every message is independent. Real workloads (telemetry fan-in, video,
// bulk RPC pipelines) still want ordered streams, and a single bursty-loss
// episode stalls a 1-packet message for a full RTO. Following the Serval
// MSP design (stream layered above an unreliable datagram core), this layer
// multiplexes sequence-numbered *segments* — each one MTP message — into
// ordered streams, with:
//
//   - Reassembly/ordering: a bounded reorder window at the receiver,
//     duplicate suppression, and cumulative + selective progress feedback
//     (StreamHeader kFeedback messages) that slides the sender's window.
//   - Optional systematic FEC: every k data segments are coded into r
//     parity segments (XOR for r = 1, GF(256) Cauchy-RS for r > 1, see
//     fec.hpp) so a segment lost to a Gilbert-Elliott burst is rebuilt at
//     the receiver without waiting out a retransmission timeout.
//   - Adaptive redundancy: r follows the receiver's loss telemetry
//     (gap_events on feedback) through an EWMA, decaying exponentially to
//     zero on clean paths.
//   - Stream-level RTO fallback on the simulator's timer wheel: MTP already
//     retransmits each segment message forever, so this only fires when the
//     *stream* state is gone (receiver crash wiped the mux) or a segment
//     fell outside the reorder window; after kMaxStreamRetx attempts the
//     stream surfaces a clean StreamError instead of hanging.
//
// Segment payload content may ride in AppData (checksum-covered, verified
// against an oracle in tests); size-only streams (empty content) model
// payload bytes without materializing them, like the rest of the simulator.
// Per stream, segments must be uniformly content-carrying or size-only.
//
// Shard safety: all state of a StreamMux is touched only from its host's
// shard (MTP delivery callbacks, its simulator's timer wheel), so sharded
// runs stay bit-identical to serial ones.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "mtp/endpoint.hpp"
#include "mtp/stream/fec.hpp"
#include "sim/timer_wheel.hpp"
#include "telemetry/metrics.hpp"

namespace mtp::stream {

/// Bytes per segment; <= the endpoint mss so each segment is one packet
/// (one MTP message), the unit FEC repairs.
inline constexpr std::uint32_t kSegmentBytes = 1000;
/// Receiver buffer span in segments beyond the in-order point; segments
/// past it are dropped (stream-level flow control keeps senders inside).
inline constexpr std::uint32_t kReorderWindow = 4096;
/// Sender cap on segments submitted beyond the cumulative ack.
inline constexpr std::uint32_t kWindowSegments = 256;
/// Receiver feedback goes out every kFeedbackEvery delivered segments or
/// kFeedbackDelay after the first unreported change, whichever comes first.
inline constexpr std::uint32_t kFeedbackEvery = 8;
inline constexpr sim::SimTime kFeedbackDelay = sim::SimTime::microseconds(100);
/// Stream-level RTO (doubled per retry) and the retries before the stream
/// fails with StreamError::kTimedOut.
inline constexpr sim::SimTime kStreamRto = sim::SimTime::milliseconds(4);
inline constexpr int kMaxStreamRetx = 8;

struct StreamConfig {
  std::uint8_t fec_k = 4;  ///< data segments per FEC group (<= fec::kMaxK)
  std::uint8_t fec_r = 0;  ///< parities per group (<= fec::kMaxR); 0 = ARQ only
  bool adaptive_fec = false;  ///< drive r from receiver loss telemetry
  std::uint8_t fec_r_max = 3;
  double fec_loss_decay = 0.5;   ///< EWMA retention per feedback round
  double fec_loss_per_r = 0.01;  ///< one parity per this much loss fraction
  /// Emit parity for a partial group this long after its first segment, so
  /// the tail of a burst is covered too.
  sim::SimTime group_flush_delay = sim::SimTime::microseconds(150);

  std::uint8_t priority = 0;
  proto::TrafficClassId tc = 0;
};

enum class StreamError : std::uint8_t {
  kTimedOut = 0,   ///< stream-level retransmissions exhausted
  kPeerReset = 1,  ///< receiver lost stream state (device crash) mid-stream
};
const char* to_string(StreamError e);

class StreamMux;

/// Sender side of one stream. Created by StreamMux::open(); owned by the mux.
class Stream {
 public:
  std::uint32_t id() const { return id_; }
  net::NodeId dst() const { return dst_; }

  /// Append one record of `bytes` payload, segmented internally. `content`,
  /// when given, must be exactly `bytes` long and is carried end to end.
  void write(std::int64_t bytes, std::string_view content = {});
  /// Mark end of stream; on_complete fires once everything is acked.
  void finish();

  bool complete() const { return complete_; }
  bool failed() const { return failed_; }
  std::uint32_t acked_seq() const { return cum_; }       ///< stream-acked frontier
  std::uint32_t next_seq() const { return next_seq_; }
  std::uint8_t active_r() const { return r_active_; }    ///< current redundancy
  double loss_ewma() const { return loss_ewma_; }
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t parity_sent() const { return parity_sent_; }
  std::uint64_t stream_retx() const { return stream_retx_; }
  std::uint64_t bytes_submitted() const { return bytes_submitted_; }

  std::function<void()> on_complete;
  std::function<void(StreamError)> on_error;

 private:
  friend class StreamMux;
  Stream(StreamMux& mux, std::uint32_t id, net::NodeId dst, proto::PortNum dst_port,
         StreamConfig cfg);

  static constexpr std::uint8_t kAcked = 1, kFin = 2;
  struct Seg {
    std::uint64_t start = 0;  ///< stream byte offset
    std::uint32_t len = 0;
    std::uint8_t flags = 0;
    std::uint8_t retx = 0;
    std::string content;
  };
  Seg& seg(std::uint32_t s) { return segs_[s - cum_]; }

  void maybe_submit();
  void submit(std::uint32_t seq);
  void flush_group();
  void on_feedback(const proto::StreamHeader& fb);
  void rto_fire();
  void arm_rto();
  void cancel_timers();
  void quarantine();  ///< dead with the device: failed, silent, object kept
  void fail(StreamError e);

  StreamMux& mux_;
  std::uint32_t id_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  StreamConfig cfg_;

  std::deque<Seg> segs_;  ///< seqs [cum_, next_seq_)
  std::uint32_t cum_ = 0;
  std::uint32_t next_seq_ = 0;
  std::uint32_t next_submit_ = 0;
  std::uint64_t stream_bytes_ = 0;
  bool finished_ = false, complete_ = false, failed_ = false;

  // FEC group under construction (submitted data segments only).
  std::uint32_t group_id_ = 0;
  std::uint32_t group_base_ = 0;
  std::vector<std::uint32_t> group_lens_;
  std::vector<std::string> group_contents_;

  std::uint8_t r_active_ = 0;
  double loss_ewma_ = 0.0;
  bool fb_seen_ = false;
  std::uint32_t fb_epoch_ = 0;
  std::uint64_t last_fb_gaps_ = 0;
  int backoff_ = 1;

  sim::TimerId rto_timer_, flush_timer_;
  std::uint64_t segments_sent_ = 0, parity_sent_ = 0, stream_retx_ = 0;
  std::uint64_t bytes_submitted_ = 0;
};

/// Stream endpoint bound to one MtpEndpoint port: demuxes incoming stream
/// messages (data/parity/feedback), owns sender Streams and per-(src, id)
/// receiver state, and reports stream metrics.
class StreamMux {
 public:
  StreamMux(core::MtpEndpoint& ep, proto::PortNum port, StreamConfig cfg = {});
  ~StreamMux();
  StreamMux(const StreamMux&) = delete;
  StreamMux& operator=(const StreamMux&) = delete;

  Stream& open(net::NodeId dst, proto::PortNum dst_port) { return open(dst, dst_port, cfg_); }
  Stream& open(net::NodeId dst, proto::PortNum dst_port, StreamConfig cfg);
  Stream* stream(std::uint32_t id);

  /// Receiver hooks, fired in order for every delivered segment / after each
  /// in-order advance. `repaired` marks FEC-reconstructed segments.
  std::function<void(net::NodeId src, std::uint32_t stream_id, std::uint32_t seq,
                     std::uint32_t len, const std::string& content, bool repaired)>
      on_segment;
  std::function<void(net::NodeId src, std::uint32_t stream_id, std::uint64_t in_order_bytes)>
      on_progress;
  std::function<void(net::NodeId src, std::uint32_t stream_id)> on_stream_complete;

  /// Device-crash semantics (fault::FaultInjector::crash_device): wipe all
  /// receiver state and go deaf until restart(). Local sender streams are
  /// quarantined — kept alive in a failed state (raw Stream* held by callers
  /// stays valid; writes become no-ops) with no on_error, since the app died
  /// with the device. Remote senders talking to a crashed mux surface
  /// StreamError::kPeerReset (their progress regressed) or kTimedOut once
  /// stream-level retransmissions exhaust.
  void crash();
  void restart() { offline_ = false; }
  bool offline() const { return offline_; }

  struct Stats {
    std::uint64_t segments_sent = 0, parity_sent = 0, stream_retx = 0;
    std::uint64_t bytes_submitted = 0;
    std::uint64_t segments_received = 0, parity_received = 0;
    std::uint64_t segments_delivered = 0, bytes_delivered = 0;
    std::uint64_t fec_repairs = 0;    ///< segments rebuilt from parity
    std::uint64_t arq_recovered = 0;  ///< gap-filling (re)transmitted arrivals
    std::uint64_t dup_segments = 0, reorder_drops = 0;
    std::uint64_t gap_events = 0, feedback_sent = 0;
    std::uint64_t streams_completed = 0, streams_failed = 0;
  };
  Stats stats() const;
  /// Deterministic fold of receiver state + counters (shard-equality checks).
  std::uint64_t digest() const;

  const StreamConfig& config() const { return cfg_; }
  proto::PortNum port() const { return port_; }
  core::MtpEndpoint& endpoint() { return ep_; }

 private:
  friend class Stream;

  struct RxKey {
    net::NodeId src;
    std::uint32_t id;
    bool operator==(const RxKey&) const = default;
  };
  struct RxKeyHash {
    std::size_t operator()(const RxKey& k) const {
      return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.src) << 32) | k.id);
    }
  };
  static std::uint64_t pack(RxKey k) {
    return (static_cast<std::uint64_t>(k.src) << 32) | k.id;
  }

  static constexpr std::uint8_t kRxRepaired = 1, kRxFin = 2, kRxOrigSeen = 4;
  struct RxSeg {
    std::uint32_t len = 0;
    std::uint8_t flags = 0;
    std::string content;
  };
  struct ParityGroup {
    std::vector<std::uint32_t> lens;
    std::vector<std::pair<std::uint8_t, std::string>> parities;
  };
  struct RxState {
    std::uint32_t cum = 0;       ///< next expected (all below delivered)
    std::uint32_t max_next = 0;  ///< highest seq observed + 1 (gap detection)
    std::uint32_t fin_seq = 0;
    bool fin_known = false;
    std::uint64_t bytes = 0;
    std::uint64_t repaired = 0;
    std::uint32_t gaps = 0;  ///< cumulative segments first observed missing
    std::map<std::uint32_t, RxSeg> buf;  ///< [cum - retention, cum + window)
    std::map<std::uint32_t, ParityGroup> parity;  ///< keyed by group base seq
    proto::PortNum peer_port = 0;
    std::uint32_t epoch = 0;  ///< rx-state incarnation, echoed on feedback
    std::uint32_t since_fb = 0;
    bool dirty = false;
    sim::TimerId fb_timer;
  };
  struct Tombstone {
    std::uint32_t next_seq = 0;
    std::uint32_t epoch = 0;
    std::uint64_t bytes = 0;
  };

  void on_message(const core::ReceivedMessage& m);
  void rx_data(const core::ReceivedMessage& m, const proto::StreamHeader& sh);
  void rx_parity(const core::ReceivedMessage& m, const proto::StreamHeader& sh);
  void try_repair(RxKey key, RxState& st, std::uint32_t base);
  void deliver(RxKey key, RxState& st);
  void note_feedback(RxKey key, RxState& st, bool immediate);
  void send_feedback(RxKey key, RxState& st);
  void ack_tombstone(RxKey key, const Tombstone& t, proto::PortNum peer_port);
  void complete_rx(RxKey key, RxState& st);
  void send_data(Stream& s, std::uint32_t seq);
  void send_parity(Stream& s, std::uint32_t base, std::uint8_t index, std::uint8_t r,
                   const std::vector<std::uint32_t>& lens, std::string content);
  void trace_stream(telemetry::TraceEventType type, net::NodeId peer, std::uint32_t stream_id,
                    std::uint32_t seq, std::uint32_t bytes, std::uint64_t value);

  static void fb_fire(void* self, std::uint64_t key);
  static void rto_tramp(void* self, std::uint64_t stream_id);
  static void flush_tramp(void* self, std::uint64_t stream_id);

  core::MtpEndpoint& ep_;
  sim::Simulator& sim_;
  proto::PortNum port_;
  StreamConfig cfg_;
  bool offline_ = false;

  std::uint32_t next_stream_id_ = 1;
  /// Incarnation counter for receiver states. Survives crash() on purpose:
  /// it stands in for the random nonce a real implementation would use to
  /// tell a rebooted peer from a reordered one.
  std::uint32_t rx_epoch_ = 0;

  std::unordered_map<std::uint32_t, std::unique_ptr<Stream>> streams_;
  std::unordered_map<RxKey, RxState, RxKeyHash> rx_;
  std::unordered_map<RxKey, Tombstone, RxKeyHash> done_;
  std::deque<RxKey> done_fifo_;
  static constexpr std::size_t kDoneCache = 1024;

  std::uint64_t segments_received_ = 0, parity_received_ = 0;
  std::uint64_t segments_delivered_ = 0, bytes_delivered_ = 0;
  std::uint64_t fec_repairs_ = 0, arq_recovered_ = 0;
  std::uint64_t dup_segments_ = 0, reorder_drops_ = 0;
  std::uint64_t feedback_sent_ = 0;
  std::uint64_t gaps_retired_ = 0;  ///< gaps of completed/crashed rx states
  std::uint64_t streams_completed_ = 0, streams_failed_ = 0;
  telemetry::Registration metrics_;
};

}  // namespace mtp::stream
