// mtp::telemetry — packet-event tracing.
//
// A bounded ring buffer of typed packet events. The hooks are always
// compiled in, but the fast path is a single predictable branch on a static
// flag so benchmarks pay ~nothing while tracing is off. When the ring fills,
// the oldest events are overwritten — memory stays bounded no matter how long
// the experiment runs. Consumers read the ring in-process (events(),
// count()); to_json() renders one event for display.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace mtp::telemetry {

enum class TraceEventType : std::uint8_t {
  kEnqueue,          ///< packet accepted by an egress queue
  kDequeue,          ///< packet left the queue for the serializer
  kDrop,             ///< packet discarded; value = net::DropReason (net/drop.hpp)
  kEcnMark,          ///< queue set the CE codepoint
  kTx,               ///< serialization onto the wire finished
  kRx,               ///< delivered to the receiving node
  kAck,              ///< transport emitted an acknowledgement
  kNack,             ///< transport emitted a negative acknowledgement
  kRto,              ///< sender declared a packet lost on timeout
  kPathletFeedback,  ///< sender consumed an echoed pathlet feedback TLV
  kLinkFlap,         ///< link went down (value=0) or came back up (value=1)
  kCorrupt,          ///< fault injection damaged a packet's payload
  kCrash,            ///< device crashed (value=0) or restarted (value=1)
  kFecRepair,        ///< mtp::stream reconstructed a lost segment from parity
  kStreamRetx,       ///< mtp::stream fell back to a stream-level retransmit
  kBusy,             ///< overload: explicit busy-reject emitted for a message
  kShed,             ///< overload: queued work discarded before service
};

const char* to_string(TraceEventType t);

struct TraceEvent {
  sim::SimTime t;
  TraceEventType type = TraceEventType::kEnqueue;
  std::string component;      ///< emitting link / node / endpoint name
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t msg_id = 0;   ///< MTP message id (0 for non-MTP packets)
  std::uint32_t pkt_num = 0;  ///< MTP packet number within the message
  std::uint32_t bytes = 0;    ///< wire size of the packet involved
  std::uint8_t tc = 0;
  std::uint64_t flow = 0;     ///< flow hash (all protocols)
  std::uint32_t pathlet = 0;  ///< kPathletFeedback: which pathlet
  std::uint64_t value = 0;    ///< type detail: queue depth, feedback value, ...
};

class TraceSink {
 public:
  /// Fast-path gate: every hook tests this before building an event.
  /// Thread-local, like the sink itself.
  static bool enabled() { return enabled_; }
  static void set_enabled(bool on) { enabled_ = on; }

  /// The sink for the calling thread. Thread-local rather than process-wide
  /// so parallel sweeps stay race-free and deterministic: each worker owns a
  /// private ring. A job that wants tracing enables/clears it inside its own
  /// body (see sim::ParallelSweep's determinism contract in docs/perf.md).
  static TraceSink& instance();

  /// Resize the ring (also clears it). Default capacity: 65536 events.
  void set_capacity(std::size_t events);
  std::size_t capacity() const { return cap_; }
  void clear();

  void record(TraceEvent ev);

  /// Events currently buffered, oldest first.
  std::vector<TraceEvent> events() const;
  std::size_t size() const { return ring_.size(); }
  /// Count of buffered events of one type.
  std::uint64_t count(TraceEventType type) const;

  std::uint64_t recorded() const { return recorded_; }  ///< recorded (incl. overwritten)

 private:
  static inline thread_local bool enabled_ = false;

  std::size_t cap_ = 1 << 16;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  ///< overwrite cursor once the ring is full
  std::uint64_t recorded_ = 0;
};

/// Shorthand for the global sink.
inline TraceSink& trace() { return TraceSink::instance(); }

/// Serialize one event as a JSON object (no trailing newline).
std::string to_json(const TraceEvent& ev);

}  // namespace mtp::telemetry
