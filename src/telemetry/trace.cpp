#include "telemetry/trace.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>

#include "telemetry/metrics.hpp"  // json_escape

namespace mtp::telemetry {

namespace {

constexpr std::array<const char*, 18> kTypeNames = {
    "enqueue", "dequeue", "drop", "ecn_mark", "tx", "rx",
    "ack", "nack", "rto", "pathlet_feedback", "link_flap", "corrupt",
    "crash", "fec_repair", "stream_retx", "busy", "shed", "hedge",
};

}  // namespace

const char* to_string(TraceEventType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < kTypeNames.size() ? kTypeNames[i] : "?";
}

TraceSink& TraceSink::instance() {
  static thread_local TraceSink sink;
  return sink;
}

void TraceSink::set_capacity(std::size_t events) {
  cap_ = events == 0 ? 1 : events;
  clear();
}

void TraceSink::clear() {
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

void TraceSink::record(TraceEvent ev) {
  ++recorded_;
  if (ring_.size() < cap_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[next_] = std::move(ev);
    next_ = (next_ + 1) % cap_;
  }
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Once the ring wrapped, the oldest event sits at the overwrite cursor.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t TraceSink::count(TraceEventType type) const {
  std::uint64_t n = 0;
  for (const auto& ev : ring_) {
    if (ev.type == type) ++n;
  }
  return n;
}

std::string to_json(const TraceEvent& ev) {
  char buf[256];
  std::string out = "{\"t_ns\":";
  std::snprintf(buf, sizeof(buf), "%" PRId64, ev.t.ns());
  out += buf;
  out += ",\"type\":\"";
  out += to_string(ev.type);
  out += "\",\"component\":\"" + json_escape(ev.component) + "\"";
  std::snprintf(buf, sizeof(buf),
                ",\"src\":%u,\"dst\":%u,\"msg_id\":%" PRIu64
                ",\"pkt_num\":%u,\"bytes\":%u,\"tc\":%u,\"flow\":%" PRIu64
                ",\"pathlet\":%u,\"value\":%" PRIu64 "}",
                ev.src, ev.dst, ev.msg_id, ev.pkt_num, ev.bytes,
                static_cast<unsigned>(ev.tc), ev.flow, ev.pathlet, ev.value);
  out += buf;
  return out;
}

}  // namespace mtp::telemetry
