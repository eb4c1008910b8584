#include "mtp/stream/stream.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/random.hpp"
#include "telemetry/trace.hpp"

namespace mtp::stream {

namespace {
/// Wire size modeled for a feedback message (cum + sacks + telemetry).
constexpr std::int64_t kFeedbackBytes = 64;
}  // namespace

const char* to_string(StreamError e) {
  switch (e) {
    case StreamError::kTimedOut: return "timed_out";
    case StreamError::kPeerReset: return "peer_reset";
  }
  return "?";
}

// ---------------------------------------------------------------- Stream ---

Stream::Stream(StreamMux& mux, std::uint32_t id, net::NodeId dst, proto::PortNum dst_port,
               StreamConfig cfg)
    : mux_(mux), id_(id), dst_(dst), dst_port_(dst_port), cfg_(cfg) {
  cfg_.fec_k = std::clamp<std::uint8_t>(cfg_.fec_k, 1, fec::kMaxK);
  cfg_.fec_r = std::min<std::uint8_t>(cfg_.fec_r, fec::kMaxR);
  cfg_.fec_r_max = std::min<std::uint8_t>(cfg_.fec_r_max, fec::kMaxR);
  r_active_ = cfg_.fec_r;
}

void Stream::write(std::int64_t bytes, std::string_view content) {
  if (failed_ || finished_ || bytes <= 0) return;
  std::int64_t off = 0;
  while (off < bytes) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::int64_t>(kSegmentBytes, bytes - off));
    Seg s;
    s.start = stream_bytes_;
    s.len = len;
    if (!content.empty()) s.content = std::string(content.substr(off, len));
    stream_bytes_ += len;
    segs_.push_back(std::move(s));
    ++next_seq_;
    off += len;
  }
  maybe_submit();
}

void Stream::finish() {
  if (failed_ || finished_) return;
  finished_ = true;
  Seg s;
  s.start = stream_bytes_;
  s.flags = kFin;
  segs_.push_back(std::move(s));
  ++next_seq_;
  maybe_submit();
}

void Stream::maybe_submit() {
  while (next_submit_ < next_seq_ && next_submit_ - cum_ < kWindowSegments) {
    submit(next_submit_++);
  }
}

void Stream::submit(std::uint32_t seq) {
  Seg& s = seg(seq);
  // Parity covers only real data segments; the FIN marker flushes whatever
  // partial group precedes it so the stream tail is coded too.
  if (s.flags & kFin) flush_group();
  mux_.send_data(*this, seq);
  ++segments_sent_;
  bytes_submitted_ += std::max<std::uint32_t>(1, s.len);
  if (!(s.flags & kFin) && r_active_ > 0) {
    // Adaptive feedback can zero r_active_ mid-group and raise it again
    // before the flush timer fires; segments submitted while r == 0 were
    // never appended, so this group would go non-contiguous. The parity
    // header advertises base..base+k-1 — encoding any other seqs would make
    // the receiver rebuild a lost segment from the wrong data. Flush the
    // stale group and start fresh instead.
    if (!group_lens_.empty() && seq != group_base_ + group_lens_.size()) flush_group();
    if (group_lens_.empty()) {
      group_base_ = seq;
      flush_timer_ = mux_.sim_.timers().arm(mux_.sim_.now() + cfg_.group_flush_delay,
                                            &StreamMux::flush_tramp, &mux_, id_);
    }
    group_lens_.push_back(s.len);
    group_contents_.push_back(s.content);
    if (group_lens_.size() >= cfg_.fec_k) flush_group();
  }
  arm_rto();
}

void Stream::flush_group() {
  mux_.sim_.timers().cancel(flush_timer_);
  if (group_lens_.empty()) return;
  const unsigned r = r_active_;
  if (r > 0) {
    auto parities = fec::encode(group_contents_, r);
    for (unsigned j = 0; j < r; ++j) {
      mux_.send_parity(*this, group_base_, static_cast<std::uint8_t>(j),
                       static_cast<std::uint8_t>(r), group_lens_, std::move(parities[j]));
      ++parity_sent_;
      bytes_submitted_ += *std::max_element(group_lens_.begin(), group_lens_.end());
    }
  }
  ++group_id_;
  group_lens_.clear();
  group_contents_.clear();
}

void Stream::on_feedback(const proto::StreamHeader& fb) {
  if (complete_ || failed_) return;
  // Epoch rules: the receiver stamps each rx-state incarnation. Equal epoch
  // feedback is processed additively (stale lower cums are harmless under
  // max()); older epochs are pre-crash stragglers; a NEWER epoch means the
  // receiver rebuilt state from scratch — fatal if we had acked progress.
  if (!fb_seen_) {
    fb_seen_ = true;
    fb_epoch_ = fb.fec_group;
    last_fb_gaps_ = fb.gap_events;
  } else if (fb.fec_group < fb_epoch_) {
    return;
  } else if (fb.fec_group > fb_epoch_) {
    if (fb.seq < cum_) {
      fail(StreamError::kPeerReset);
      return;
    }
    fb_epoch_ = fb.fec_group;
    last_fb_gaps_ = fb.gap_events;
  }
  if (fb.seq > next_submit_) return;  // malformed: acks beyond what was sent

  const std::uint32_t old_cum = cum_;
  while (cum_ < fb.seq) {
    segs_.pop_front();
    ++cum_;
  }
  for (const std::uint32_t s : fb.sack) {
    if (s >= cum_ && s < next_submit_) seg(s).flags |= kAcked;
  }

  if (cfg_.adaptive_fec) {
    const std::uint64_t d_gaps =
        fb.gap_events > last_fb_gaps_ ? fb.gap_events - last_fb_gaps_ : 0;
    last_fb_gaps_ = std::max<std::uint64_t>(last_fb_gaps_, fb.gap_events);
    const double d_prog = std::max<double>(1.0, cum_ - old_cum);
    const double sample = static_cast<double>(d_gaps) / (static_cast<double>(d_gaps) + d_prog);
    loss_ewma_ = cfg_.fec_loss_decay * loss_ewma_ + (1.0 - cfg_.fec_loss_decay) * sample;
    if (loss_ewma_ < 0.5 * cfg_.fec_loss_per_r) {
      r_active_ = 0;  // clean path: redundancy decays to zero
    } else {
      r_active_ = static_cast<std::uint8_t>(std::min<double>(
          cfg_.fec_r_max, std::ceil(loss_ewma_ / cfg_.fec_loss_per_r)));
    }
  }

  if (cum_ > old_cum) {
    backoff_ = 1;
    mux_.sim_.timers().cancel(rto_timer_);
  }
  maybe_submit();
  if (finished_ && cum_ == next_seq_) {
    cancel_timers();
    complete_ = true;
    ++mux_.streams_completed_;
    if (on_complete) on_complete();
    return;
  }
  arm_rto();
}

void Stream::arm_rto() {
  if (complete_ || failed_ || cum_ == next_submit_) return;
  if (!mux_.sim_.timers().armed(rto_timer_)) {
    rto_timer_ = mux_.sim_.timers().arm(
        mux_.sim_.now() + sim::SimTime::nanoseconds(kStreamRto.ns() * backoff_),
        &StreamMux::rto_tramp, &mux_, id_);
  }
}

void Stream::rto_fire() {
  if (complete_ || failed_ || cum_ == next_submit_) return;
  // MTP keeps retransmitting each segment message on its own, so reaching
  // here repeatedly means the far stream state is gone or a segment fell
  // outside the reorder window: resend outstanding segments as fresh MTP
  // messages (the receiver dedups), give up after kMaxStreamRetx.
  bool counted = false;
  for (std::uint32_t s = cum_; s < next_submit_; ++s) {
    Seg& sg = seg(s);
    if (sg.flags & kAcked) continue;
    if (!counted) {
      counted = true;
      if (++sg.retx > kMaxStreamRetx) {
        fail(StreamError::kTimedOut);
        return;
      }
    }
    mux_.send_data(*this, s);
    ++stream_retx_;
    mux_.trace_stream(telemetry::TraceEventType::kStreamRetx, dst_, id_, s, sg.len,
                      static_cast<std::uint64_t>(sg.retx));
  }
  backoff_ = std::min(backoff_ * 2, 32);
  arm_rto();
}

void Stream::cancel_timers() {
  mux_.sim_.timers().cancel(rto_timer_);
  mux_.sim_.timers().cancel(flush_timer_);
}

void Stream::quarantine() {
  cancel_timers();
  failed_ = true;
  segs_.clear();
  group_lens_.clear();
  group_contents_.clear();
}

void Stream::fail(StreamError e) {
  cancel_timers();
  failed_ = true;
  ++mux_.streams_failed_;
  segs_.clear();
  group_lens_.clear();
  group_contents_.clear();
  if (on_error) on_error(e);
}

// ------------------------------------------------------------- StreamMux ---

StreamMux::StreamMux(core::MtpEndpoint& ep, proto::PortNum port, StreamConfig cfg)
    : ep_(ep), sim_(ep.node().simulator()), port_(port), cfg_(cfg) {
  ep_.listen(port_, [this](const core::ReceivedMessage& m) { on_message(m); });
  metrics_ = telemetry::MetricRegistry::global().add(
      "stream", ep_.node().name(), [this](std::vector<telemetry::MetricSample>& out) {
        using telemetry::MetricKind;
        const Stats s = stats();
        out.push_back({"segments_sent", MetricKind::kCounter,
                       static_cast<double>(s.segments_sent)});
        out.push_back({"parity_sent", MetricKind::kCounter,
                       static_cast<double>(s.parity_sent)});
        out.push_back({"stream_retx", MetricKind::kCounter,
                       static_cast<double>(s.stream_retx)});
        out.push_back({"segments_delivered", MetricKind::kCounter,
                       static_cast<double>(s.segments_delivered)});
        out.push_back({"fec_repairs", MetricKind::kCounter,
                       static_cast<double>(s.fec_repairs)});
        out.push_back({"arq_recovered", MetricKind::kCounter,
                       static_cast<double>(s.arq_recovered)});
        out.push_back({"dup_segments", MetricKind::kCounter,
                       static_cast<double>(s.dup_segments)});
        out.push_back({"gap_events", MetricKind::kCounter,
                       static_cast<double>(s.gap_events)});
        out.push_back({"feedback_sent", MetricKind::kCounter,
                       static_cast<double>(s.feedback_sent)});
        out.push_back({"streams_completed", MetricKind::kCounter,
                       static_cast<double>(s.streams_completed)});
        out.push_back({"streams_failed", MetricKind::kCounter,
                       static_cast<double>(s.streams_failed)});
        out.push_back({"rx_buffered", MetricKind::kGauge, [this] {
                         std::size_t n = 0;
                         for (const auto& [k, st] : rx_) n += st.buf.size();
                         return static_cast<double>(n);
                       }()});
      });
}

StreamMux::~StreamMux() {
  for (auto& [id, s] : streams_) s->cancel_timers();
  for (auto& [k, st] : rx_) sim_.timers().cancel(st.fb_timer);
}

Stream& StreamMux::open(net::NodeId dst, proto::PortNum dst_port, StreamConfig cfg) {
  const std::uint32_t id = next_stream_id_++;
  auto s = std::unique_ptr<Stream>(new Stream(*this, id, dst, dst_port, cfg));
  Stream& ref = *s;
  streams_.emplace(id, std::move(s));
  return ref;
}

Stream* StreamMux::stream(std::uint32_t id) {
  const auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : it->second.get();
}

void StreamMux::crash() {
  offline_ = true;
  for (auto& [k, st] : rx_) {
    sim_.timers().cancel(st.fb_timer);
    gaps_retired_ += st.gaps;
  }
  rx_.clear();
  done_.clear();
  done_fifo_.clear();
  // Local senders die with the device. The Stream objects stay alive in a
  // failed state — callers hold raw Stream* — but no on_error is surfaced
  // into the wiped state: the app restarts from scratch.
  for (auto& [id, s] : streams_) s->quarantine();
}

void StreamMux::on_message(const core::ReceivedMessage& m) {
  if (offline_ || !m.stream) return;
  const proto::StreamHeader& sh = *m.stream;
  switch (sh.kind) {
    case proto::StreamKind::kFeedback: {
      const auto it = streams_.find(sh.stream_id);
      if (it != streams_.end()) it->second->on_feedback(sh);
      break;
    }
    case proto::StreamKind::kData:
      rx_data(m, sh);
      break;
    case proto::StreamKind::kParity:
      rx_parity(m, sh);
      break;
  }
}

void StreamMux::rx_data(const core::ReceivedMessage& m, const proto::StreamHeader& sh) {
  const RxKey key{m.src, sh.stream_id};
  if (const auto d = done_.find(key); d != done_.end()) {
    ++dup_segments_;
    ack_tombstone(key, d->second, m.src_port);
    return;
  }
  auto [it, fresh] = rx_.try_emplace(key);
  RxState& st = it->second;
  if (fresh) {
    st.epoch = ++rx_epoch_;
    st.peer_port = m.src_port;
  }
  const std::uint32_t seq = sh.seq;
  if (seq < st.cum || st.buf.contains(seq)) {
    ++dup_segments_;
    if (const auto b = st.buf.find(seq); b != st.buf.end()) {
      // The MTP-retransmitted original of a segment FEC already rebuilt.
      if ((b->second.flags & kRxRepaired) && !(b->second.flags & kRxOrigSeen)) {
        b->second.flags |= kRxOrigSeen;
      }
    }
    st.dirty = true;
    note_feedback(key, st, false);  // re-ack so a stalled sender converges
    return;
  }
  if (seq >= st.cum + kReorderWindow) {
    ++reorder_drops_;
    st.dirty = true;
    note_feedback(key, st, true);
    return;
  }
  const std::uint32_t gaps_before = st.gaps;
  if (seq >= st.max_next) {
    st.gaps += seq - st.max_next;
    st.max_next = seq + 1;
  } else {
    ++arq_recovered_;  // fills a gap some retransmission path closed
  }
  RxSeg rs;
  rs.len = sh.fin() ? 0 : static_cast<std::uint32_t>(m.bytes);
  if (sh.fin()) rs.flags |= kRxFin;
  if (m.app) rs.content = m.app->value;
  st.buf.emplace(seq, std::move(rs));
  ++segments_received_;
  if (sh.fin()) {
    st.fin_known = true;
    st.fin_seq = seq;
  }
  // A data arrival can complete a previously short FEC group.
  if (const auto pit = st.parity.upper_bound(seq); pit != st.parity.begin()) {
    const auto prev = std::prev(pit);
    if (prev->first + prev->second.lens.size() > seq) try_repair(key, st, prev->first);
  }
  st.dirty = true;
  deliver(key, st);
  if (const auto live = rx_.find(key); live != rx_.end()) {
    note_feedback(key, live->second, st.gaps != gaps_before);
  }
}

void StreamMux::rx_parity(const core::ReceivedMessage& m, const proto::StreamHeader& sh) {
  const RxKey key{m.src, sh.stream_id};
  if (const auto d = done_.find(key); d != done_.end()) {
    ++dup_segments_;
    ack_tombstone(key, d->second, m.src_port);
    return;
  }
  auto [it, fresh] = rx_.try_emplace(key);
  RxState& st = it->second;
  if (fresh) {
    st.epoch = ++rx_epoch_;
    st.peer_port = m.src_port;
  }
  const std::uint32_t base = sh.seq;
  const std::uint32_t k = static_cast<std::uint32_t>(sh.seg_lens.size());
  if (k == 0 || k > fec::kMaxK) return;
  if (base + k <= st.cum) {
    ++dup_segments_;
    return;  // group already fully delivered
  }
  if (base >= st.cum + kReorderWindow) {
    ++reorder_drops_;
    return;
  }
  const std::uint32_t gaps_before = st.gaps;
  // The parity proves its k data segments were sent: anything in its range
  // we have not seen yet is a detected loss.
  if (base + k > st.max_next) {
    st.gaps += base + k - st.max_next;
    st.max_next = base + k;
  }
  ParityGroup& g = st.parity[base];
  if (g.lens.empty()) g.lens = sh.seg_lens;
  bool have_row = false;
  for (const auto& [row, content] : g.parities) have_row |= row == sh.fec_index;
  if (have_row) {
    ++dup_segments_;
  } else {
    g.parities.emplace_back(sh.fec_index, m.app ? m.app->value : std::string());
    ++parity_received_;
    try_repair(key, st, base);
  }
  st.dirty = true;
  deliver(key, st);
  if (const auto live = rx_.find(key); live != rx_.end()) {
    note_feedback(key, live->second, st.gaps != gaps_before);
  }
}

void StreamMux::try_repair(RxKey key, RxState& st, std::uint32_t base) {
  const auto git = st.parity.find(base);
  if (git == st.parity.end()) return;
  ParityGroup& g = git->second;
  const std::uint32_t k = static_cast<std::uint32_t>(g.lens.size());
  std::vector<std::optional<std::string>> segments(k);
  std::vector<std::uint32_t> missing;
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto b = st.buf.find(base + i);
    if (b != st.buf.end()) {
      segments[i] = b->second.content;
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) {
    st.parity.erase(git);
    return;
  }
  if (missing.size() > g.parities.size()) return;  // not enough parities yet
  if (!fec::decode(segments, g.parities)) return;
  for (const std::uint32_t i : missing) {
    const std::uint32_t seq = base + i;
    const std::uint32_t len = g.lens[i];
    RxSeg rs;
    rs.len = len;
    rs.flags = kRxRepaired;
    auto& rec = *segments[i];
    rec.resize(std::min<std::size_t>(rec.size(), len));  // drop group padding
    rs.content = std::move(rec);
    st.buf.emplace(seq, std::move(rs));
    ++st.repaired;
    ++fec_repairs_;
    trace_stream(telemetry::TraceEventType::kFecRepair, key.src, key.id, seq, len, base);
  }
  st.parity.erase(git);
}

void StreamMux::deliver(RxKey key, RxState& st) {
  bool progressed = false;
  while (true) {
    const auto it = st.buf.find(st.cum);
    if (it == st.buf.end()) break;
    RxSeg& rs = it->second;
    const std::uint32_t seq = st.cum;
    ++st.cum;
    ++st.since_fb;
    progressed = true;
    if (rs.flags & kRxFin) {
      complete_rx(key, st);
      return;
    }
    st.bytes += rs.len;
    ++segments_delivered_;
    bytes_delivered_ += rs.len;
    if (on_segment) {
      on_segment(key.src, key.id, seq, rs.len, rs.content, (rs.flags & kRxRepaired) != 0);
    }
    // Delivered entries are retained a little behind cum so parity groups
    // straddling the frontier can still decode, then pruned.
    while (!st.buf.empty() && st.buf.begin()->first + 2 * fec::kMaxK < st.cum) {
      st.buf.erase(st.buf.begin());
    }
    while (!st.parity.empty() &&
           st.parity.begin()->first + st.parity.begin()->second.lens.size() <= st.cum) {
      st.parity.erase(st.parity.begin());
    }
  }
  if (progressed && on_progress) on_progress(key.src, key.id, st.bytes);
}

void StreamMux::complete_rx(RxKey key, RxState& st) {
  send_feedback(key, st);  // final: cum = fin + 1, sender completes
  sim_.timers().cancel(st.fb_timer);
  ++streams_completed_;
  gaps_retired_ += st.gaps;  // gap_events is a counter: keep it monotone
  Tombstone t;
  t.next_seq = st.cum;
  t.epoch = st.epoch;
  t.bytes = st.bytes;
  const std::uint64_t bytes = st.bytes;
  done_.emplace(key, t);
  done_fifo_.push_back(key);
  while (done_fifo_.size() > kDoneCache) {
    done_.erase(done_fifo_.front());
    done_fifo_.pop_front();
  }
  rx_.erase(key);
  if (on_progress) on_progress(key.src, key.id, bytes);
  if (on_stream_complete) on_stream_complete(key.src, key.id);
}

void StreamMux::note_feedback(RxKey key, RxState& st, bool immediate) {
  if (!st.dirty) return;
  if (immediate || st.since_fb >= kFeedbackEvery) {
    send_feedback(key, st);
    return;
  }
  if (!sim_.timers().armed(st.fb_timer)) {
    st.fb_timer = sim_.timers().arm(sim_.now() + kFeedbackDelay, &StreamMux::fb_fire,
                                    this, pack(key));
  }
}

void StreamMux::send_feedback(RxKey key, RxState& st) {
  proto::StreamHeader fb;
  fb.stream_id = key.id;
  fb.kind = proto::StreamKind::kFeedback;
  fb.seq = st.cum;
  fb.offset = st.bytes;
  fb.fec_group = st.epoch;  // feedback: rx-state incarnation
  fb.fec_repaired = st.repaired;
  fb.gap_events = st.gaps;
  for (const auto& [s, rs] : st.buf) {
    if (s < st.cum) continue;
    fb.sack.push_back(s);
    if (fb.sack.size() >= 64) break;
  }
  core::MessageOptions o;
  o.priority = cfg_.priority;
  o.tc = cfg_.tc;
  o.src_port = port_;
  o.dst_port = st.peer_port;
  o.stream = std::move(fb);
  ep_.send_message(key.src, kFeedbackBytes, std::move(o), {});
  ++feedback_sent_;
  st.since_fb = 0;
  st.dirty = false;
  sim_.timers().cancel(st.fb_timer);
}

void StreamMux::ack_tombstone(RxKey key, const Tombstone& t, proto::PortNum peer_port) {
  proto::StreamHeader fb;
  fb.stream_id = key.id;
  fb.kind = proto::StreamKind::kFeedback;
  fb.seq = t.next_seq;
  fb.offset = t.bytes;
  fb.fec_group = t.epoch;
  core::MessageOptions o;
  o.priority = cfg_.priority;
  o.tc = cfg_.tc;
  o.src_port = port_;
  o.dst_port = peer_port;
  o.stream = std::move(fb);
  ep_.send_message(key.src, kFeedbackBytes, std::move(o), {});
  ++feedback_sent_;
}

void StreamMux::send_data(Stream& s, std::uint32_t seq) {
  Stream::Seg& sg = s.seg(seq);
  proto::StreamHeader sh;
  sh.stream_id = s.id_;
  sh.kind = proto::StreamKind::kData;
  sh.seq = seq;
  sh.offset = sg.start;
  if (sg.flags & Stream::kFin) sh.flags |= proto::kStreamFin;
  core::MessageOptions o;
  o.priority = s.cfg_.priority;
  o.tc = s.cfg_.tc;
  o.src_port = port_;
  o.dst_port = s.dst_port_;
  if (!sg.content.empty()) o.app = net::AppData{{}, sg.content};
  o.stream = std::move(sh);
  ep_.send_message(s.dst_, std::max<std::int64_t>(1, sg.len), std::move(o), {});
}

void StreamMux::send_parity(Stream& s, std::uint32_t base, std::uint8_t index, std::uint8_t r,
                            const std::vector<std::uint32_t>& lens, std::string content) {
  proto::StreamHeader sh;
  sh.stream_id = s.id_;
  sh.kind = proto::StreamKind::kParity;
  sh.seq = base;
  sh.fec_group = s.group_id_;
  sh.fec_k = static_cast<std::uint8_t>(lens.size());
  sh.fec_r = r;
  sh.fec_index = index;
  sh.seg_lens = lens;
  const std::int64_t bytes = *std::max_element(lens.begin(), lens.end());
  core::MessageOptions o;
  o.priority = s.cfg_.priority;
  o.tc = s.cfg_.tc;
  o.src_port = port_;
  o.dst_port = s.dst_port_;
  if (!content.empty()) o.app = net::AppData{{}, std::move(content)};
  o.stream = std::move(sh);
  ep_.send_message(s.dst_, std::max<std::int64_t>(1, bytes), std::move(o), {});
}

void StreamMux::trace_stream(telemetry::TraceEventType type, net::NodeId peer,
                             std::uint32_t stream_id, std::uint32_t seq, std::uint32_t bytes,
                             std::uint64_t value) {
  if (!telemetry::TraceSink::enabled()) return;
  telemetry::TraceEvent ev;
  ev.t = sim_.now();
  ev.type = type;
  ev.component = ep_.node().name();
  ev.src = ep_.node().id();
  ev.dst = peer;
  ev.msg_id = stream_id;
  ev.pkt_num = seq;
  ev.bytes = bytes;
  ev.tc = cfg_.tc;
  ev.value = value;
  telemetry::trace().record(ev);
}

void StreamMux::fb_fire(void* self, std::uint64_t key) {
  auto* mux = static_cast<StreamMux*>(self);
  const RxKey k{static_cast<net::NodeId>(key >> 32), static_cast<std::uint32_t>(key)};
  const auto it = mux->rx_.find(k);
  if (it == mux->rx_.end() || !it->second.dirty) return;
  mux->send_feedback(k, it->second);
}

void StreamMux::rto_tramp(void* self, std::uint64_t stream_id) {
  auto* mux = static_cast<StreamMux*>(self);
  const auto it = mux->streams_.find(static_cast<std::uint32_t>(stream_id));
  if (it != mux->streams_.end()) it->second->rto_fire();
}

void StreamMux::flush_tramp(void* self, std::uint64_t stream_id) {
  auto* mux = static_cast<StreamMux*>(self);
  const auto it = mux->streams_.find(static_cast<std::uint32_t>(stream_id));
  if (it != mux->streams_.end()) it->second->flush_group();
}

StreamMux::Stats StreamMux::stats() const {
  Stats s;
  for (const auto& [id, st] : streams_) {
    s.segments_sent += st->segments_sent_;
    s.parity_sent += st->parity_sent_;
    s.stream_retx += st->stream_retx_;
    s.bytes_submitted += st->bytes_submitted_;
  }
  s.segments_received = segments_received_;
  s.parity_received = parity_received_;
  s.segments_delivered = segments_delivered_;
  s.bytes_delivered = bytes_delivered_;
  s.fec_repairs = fec_repairs_;
  s.arq_recovered = arq_recovered_;
  s.dup_segments = dup_segments_;
  s.reorder_drops = reorder_drops_;
  s.feedback_sent = feedback_sent_;
  s.streams_completed = streams_completed_;
  s.streams_failed = streams_failed_;
  s.gap_events = gaps_retired_;
  for (const auto& [k, st] : rx_) s.gap_events += st.gaps;
  return s;
}

std::uint64_t StreamMux::digest() const {
  std::vector<std::pair<std::uint64_t, std::array<std::uint64_t, 4>>> rows;
  rows.reserve(rx_.size() + done_.size());
  for (const auto& [k, st] : rx_) {
    rows.push_back({pack(k), {st.cum, st.bytes, st.repaired, st.gaps}});
  }
  for (const auto& [k, t] : done_) {
    rows.push_back({pack(k) | (1ULL << 63), {t.next_seq, t.bytes, t.epoch, 0}});
  }
  std::sort(rows.begin(), rows.end());
  sim::RunDigest d(1);
  for (const auto& [k, vals] : rows) {
    d.add(0, k);
    for (const auto v : vals) d.add(0, v);
  }
  const Stats s = stats();
  for (const std::uint64_t v : {s.segments_delivered, s.bytes_delivered, s.fec_repairs,
                                s.arq_recovered, s.dup_segments, s.streams_completed,
                                s.streams_failed}) {
    d.add(0, v);
  }
  return d.value();
}

}  // namespace mtp::stream
