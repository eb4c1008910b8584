#include "proto/mtp_header.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "proto/wire.hpp"

namespace mtp::proto {

static_assert(sizeof(HeaderLists) == sizeof(void*));

namespace {
template <typename T>
constexpr bool kBlockEntry = std::is_trivially_copyable_v<T> && sizeof(T) % 8 == 0 &&
                             alignof(T) <= 8;
static_assert(kBlockEntry<PathRef> && kBlockEntry<PathFeedback> && kBlockEntry<SackEntry>,
              "HeaderLists stores entries with memcpy, each list 8-byte aligned");
}  // namespace

HeaderLists::HeaderLists(const HeaderLists& o) {
  if (o.b_ == nullptr) return;
  const std::size_t used = o.offset(kNumLists);
  if (used == sizeof(Block)) return;  // every list empty: no block
  b_ = static_cast<Block*>(::operator new(used));
  std::memcpy(b_, o.b_, used);
  b_->capacity = static_cast<std::uint32_t>(used);
}

HeaderLists& HeaderLists::operator=(const HeaderLists& o) {
  if (this != &o) *this = HeaderLists(o);
  return *this;
}

HeaderLists& HeaderLists::operator=(HeaderLists&& o) noexcept {
  if (this != &o) {
    reset();
    b_ = std::exchange(o.b_, nullptr);
  }
  return *this;
}

void HeaderLists::reset() noexcept {
  ::operator delete(b_);
  b_ = nullptr;
}

void HeaderLists::reallocate(std::size_t capacity) {
  auto* nb = static_cast<Block*>(::operator new(capacity));
  if (b_ != nullptr) {
    std::memcpy(nb, b_, offset(kNumLists));
    ::operator delete(b_);
  } else {
    *nb = Block{};
  }
  nb->capacity = static_cast<std::uint32_t>(capacity);
  b_ = nb;
}

void HeaderLists::reserve(const std::array<std::size_t, kNumLists>& counts) {
  std::size_t want = sizeof(Block);
  for (std::size_t i = 0; i < kNumLists; ++i) {
    const std::size_t held = b_ != nullptr ? b_->count[i] : 0;
    want += std::max(counts[i], held) * kEntrySize[i];
  }
  if (want == sizeof(Block)) return;
  if (b_ == nullptr || want > b_->capacity) reallocate(want);
}

std::byte* HeaderLists::resize(std::size_t list, std::size_t n) {
  if (n > UINT16_MAX) throw std::length_error("MTP header list longer than its 16-bit count");
  const std::size_t size = kEntrySize[list];
  const std::size_t old_n = b_ != nullptr ? b_->count[list] : 0;
  const std::size_t used = b_ != nullptr ? offset(kNumLists) : sizeof(Block);
  const std::size_t need = used - old_n * size + n * size;
  if (b_ == nullptr || need > b_->capacity) {
    reallocate(b_ == nullptr ? need : std::max<std::size_t>(need, 2 * b_->capacity));
  }
  auto* base = reinterpret_cast<std::byte*>(b_);
  const std::size_t begin = offset(list);
  const std::size_t tail = begin + old_n * size;  // the lists after this one
  std::memmove(base + begin + n * size, base + tail, used - tail);
  b_->count[list] = static_cast<std::uint16_t>(n);
  return base + begin;
}

bool operator==(const HeaderLists& a, const HeaderLists& b) {
  return std::ranges::equal(a.get<HeaderLists::kPathExclude>(),
                            b.get<HeaderLists::kPathExclude>()) &&
         std::ranges::equal(a.get<HeaderLists::kPathFeedback>(),
                            b.get<HeaderLists::kPathFeedback>()) &&
         std::ranges::equal(a.get<HeaderLists::kAckPathFeedback>(),
                            b.get<HeaderLists::kAckPathFeedback>()) &&
         std::ranges::equal(a.get<HeaderLists::kSack>(), b.get<HeaderLists::kSack>()) &&
         std::ranges::equal(a.get<HeaderLists::kNack>(), b.get<HeaderLists::kNack>());
}

namespace {

// List lengths on the wire are 16-bit counts; a header with more than 65535
// feedback entries is nonsensical and rejected at serialize time by clamping
// being impossible (vectors of that size never occur; parse rejects absurd
// remaining-space mismatches naturally via WireReader underrun).
constexpr std::size_t kPathRefSize = 4 + 1;          // PathletId + TC
constexpr std::size_t kPathFeedbackSize = 4 + 1 + 1 + 8;  // + FeedbackType + value
constexpr std::size_t kSackEntrySize = 8 + 4;        // MsgId + PktNum

void put_path_refs(WireWriter& w, std::span<const PathRef> v) {
  w.put<std::uint16_t>(static_cast<std::uint16_t>(v.size()));
  for (const auto& e : v) {
    w.put<std::uint32_t>(e.pathlet);
    w.put<std::uint8_t>(e.tc);
  }
}

void put_path_feedback(WireWriter& w, std::span<const PathFeedback> v) {
  w.put<std::uint16_t>(static_cast<std::uint16_t>(v.size()));
  for (const auto& e : v) {
    w.put<std::uint32_t>(e.pathlet);
    w.put<std::uint8_t>(e.tc);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(e.feedback.type));
    w.put<std::uint64_t>(e.feedback.value);
  }
}

void put_sack(WireWriter& w, std::span<const SackEntry> v) {
  w.put<std::uint16_t>(static_cast<std::uint16_t>(v.size()));
  for (const auto& e : v) {
    w.put<std::uint64_t>(e.msg_id);
    w.put<std::uint32_t>(e.pkt_num);
  }
}

// The get_* readers append to the header's list; an empty list on the wire
// allocates no block.
template <std::size_t I>
bool get_path_refs(WireReader& r, ListHandle<I> out) {
  const auto n = r.get<std::uint16_t>();
  if (!n) return false;
  for (std::uint16_t i = 0; i < *n; ++i) {
    const auto pathlet = r.get<std::uint32_t>();
    const auto tc = r.get<std::uint8_t>();
    if (!pathlet || !tc.has_value()) return false;
    out.push_back({*pathlet, *tc});
  }
  return true;
}

template <std::size_t I>
bool get_path_feedback(WireReader& r, ListHandle<I> out) {
  const auto n = r.get<std::uint16_t>();
  if (!n) return false;
  for (std::uint16_t i = 0; i < *n; ++i) {
    const auto pathlet = r.get<std::uint32_t>();
    const auto tc = r.get<std::uint8_t>();
    const auto type = r.get<std::uint8_t>();
    const auto value = r.get<std::uint64_t>();
    if (!pathlet || !tc.has_value() || !type || !value) return false;
    if (*type > static_cast<std::uint8_t>(FeedbackType::kTrimmed)) return false;
    out.push_back({*pathlet, *tc, Feedback{static_cast<FeedbackType>(*type), *value}});
  }
  return true;
}

template <std::size_t I>
bool get_sack(WireReader& r, ListHandle<I> out) {
  const auto n = r.get<std::uint16_t>();
  if (!n) return false;
  for (std::uint16_t i = 0; i < *n; ++i) {
    const auto msg = r.get<std::uint64_t>();
    const auto pkt = r.get<std::uint32_t>();
    if (!msg || !pkt) return false;
    out.push_back({*msg, *pkt});
  }
  return true;
}

// StreamHeader fixed fields: stream_id + kind + flags + seq + offset +
// fec_group + fec_k + fec_r + fec_index + fec_repaired + gap_events.
constexpr std::size_t kStreamFixedSize = 4 + 1 + 1 + 4 + 8 + 4 + 1 + 1 + 1 + 8 + 4;

// OverloadInfo fields: flags + grant_bytes + deadline_ns.
constexpr std::size_t kOverloadSize = 1 + 8 + 8;

void put_u32_list(WireWriter& w, const std::vector<std::uint32_t>& v) {
  w.put<std::uint16_t>(static_cast<std::uint16_t>(v.size()));
  for (const auto e : v) w.put<std::uint32_t>(e);
}

bool get_u32_list(WireReader& r, std::vector<std::uint32_t>& v) {
  const auto n = r.get<std::uint16_t>();
  if (!n) return false;
  v.reserve(*n);
  for (std::uint16_t i = 0; i < *n; ++i) {
    const auto e = r.get<std::uint32_t>();
    if (!e) return false;
    v.push_back(*e);
  }
  return true;
}

/// Overload block (trailing): presence byte, then flags + grant + deadline.
std::optional<MtpHeader> parse_overload(WireReader& r, MtpHeader& h) {
  const auto op = r.get<std::uint8_t>();
  if (!op.has_value() || *op > 1) return std::nullopt;
  if (*op == 0) return std::move(h);
  const auto flags = r.get<std::uint8_t>();
  const auto grant = r.get<std::uint64_t>();
  const auto deadline = r.get<std::uint64_t>();
  if (!flags.has_value() || !grant || !deadline) return std::nullopt;
  if (*flags > (kOverloadBusy | kOverloadExpired)) return std::nullopt;
  auto& o = h.overload.ensure();
  o.flags = *flags;
  o.grant_bytes = *grant;
  o.deadline_ns = *deadline;
  return std::move(h);
}

}  // namespace

std::size_t MtpHeader::wire_size() const {
  std::size_t n = kFixedSize + 5 * 2  // five 16-bit list counts
                  + path_exclude().size() * kPathRefSize
                  + (path_feedback().size() + ack_path_feedback().size()) * kPathFeedbackSize
                  + (sack().size() + nack().size()) * kSackEntrySize;
  n += 1;  // stream presence flag
  if (stream) {
    n += kStreamFixedSize + 2 * 2 + (stream->seg_lens.size() + stream->sack.size()) * 4;
  }
  n += 1;  // overload presence flag
  if (overload) n += kOverloadSize;
  return n;
}

void MtpHeader::serialize(std::vector<std::uint8_t>& out) const {
  out.reserve(out.size() + wire_size());
  WireWriter w(out);
  w.put<std::uint16_t>(src_port);
  w.put<std::uint16_t>(dst_port);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(type));
  w.put<std::uint64_t>(msg_id);
  w.put<std::uint8_t>(priority);
  w.put<std::uint8_t>(tc);
  w.put<std::uint64_t>(msg_len_bytes);
  w.put<std::uint32_t>(msg_len_pkts);
  w.put<std::uint32_t>(pkt_num);
  w.put<std::uint64_t>(pkt_offset);
  w.put<std::uint32_t>(pkt_len);
  put_path_refs(w, path_exclude());
  put_path_feedback(w, path_feedback());
  put_path_feedback(w, ack_path_feedback());
  put_sack(w, sack());
  put_sack(w, nack());
  w.put<std::uint8_t>(stream ? 1 : 0);
  if (stream) {
    const auto& s = *stream;
    w.put<std::uint32_t>(s.stream_id);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(s.kind));
    w.put<std::uint8_t>(s.flags);
    w.put<std::uint32_t>(s.seq);
    w.put<std::uint64_t>(s.offset);
    w.put<std::uint32_t>(s.fec_group);
    w.put<std::uint8_t>(s.fec_k);
    w.put<std::uint8_t>(s.fec_r);
    w.put<std::uint8_t>(s.fec_index);
    w.put<std::uint64_t>(s.fec_repaired);
    w.put<std::uint32_t>(s.gap_events);
    put_u32_list(w, s.seg_lens);
    put_u32_list(w, s.sack);
  }
  w.put<std::uint8_t>(overload ? 1 : 0);
  if (overload) {
    w.put<std::uint8_t>(overload->flags);
    w.put<std::uint64_t>(overload->grant_bytes);
    w.put<std::uint64_t>(overload->deadline_ns);
  }
}

std::optional<MtpHeader> MtpHeader::parse(std::span<const std::uint8_t> in) {
  WireReader r(in);
  MtpHeader h;
  const auto src = r.get<std::uint16_t>();
  const auto dst = r.get<std::uint16_t>();
  const auto type = r.get<std::uint8_t>();
  const auto msg_id = r.get<std::uint64_t>();
  const auto pri = r.get<std::uint8_t>();
  const auto tc = r.get<std::uint8_t>();
  const auto len_bytes = r.get<std::uint64_t>();
  const auto len_pkts = r.get<std::uint32_t>();
  const auto pkt_num = r.get<std::uint32_t>();
  const auto pkt_off = r.get<std::uint64_t>();
  const auto pkt_len = r.get<std::uint32_t>();
  if (!src || !dst || !type || !msg_id || !pri || !tc.has_value() || !len_bytes || !len_pkts ||
      !pkt_num || !pkt_off || !pkt_len) {
    return std::nullopt;
  }
  if (*type > static_cast<std::uint8_t>(MtpPacketType::kAck)) return std::nullopt;
  h.src_port = *src;
  h.dst_port = *dst;
  h.type = static_cast<MtpPacketType>(*type);
  h.msg_id = *msg_id;
  h.priority = *pri;
  h.tc = *tc;
  h.msg_len_bytes = *len_bytes;
  h.msg_len_pkts = *len_pkts;
  h.pkt_num = *pkt_num;
  h.pkt_offset = *pkt_off;
  h.pkt_len = *pkt_len;
  if (!get_path_refs(r, h.path_exclude()) || !get_path_feedback(r, h.path_feedback()) ||
      !get_path_feedback(r, h.ack_path_feedback()) || !get_sack(r, h.sack()) ||
      !get_sack(r, h.nack())) {
    return std::nullopt;
  }
  // Stream block: presence byte, then the fixed fields + two u32 lists.
  const auto sp = r.get<std::uint8_t>();
  if (!sp.has_value() || *sp > 1) return std::nullopt;
  if (*sp == 0) return parse_overload(r, h);
  auto& s = h.stream.ensure();
  const auto sid = r.get<std::uint32_t>();
  const auto kind = r.get<std::uint8_t>();
  const auto flags = r.get<std::uint8_t>();
  const auto seq = r.get<std::uint32_t>();
  const auto off = r.get<std::uint64_t>();
  const auto group = r.get<std::uint32_t>();
  const auto fk = r.get<std::uint8_t>();
  const auto fr = r.get<std::uint8_t>();
  const auto fi = r.get<std::uint8_t>();
  const auto repaired = r.get<std::uint64_t>();
  const auto gaps = r.get<std::uint32_t>();
  if (!sid || !kind || !flags.has_value() || !seq || !off || !group || !fk.has_value() ||
      !fr.has_value() || !fi.has_value() || !repaired || !gaps) {
    return std::nullopt;
  }
  if (*kind > static_cast<std::uint8_t>(StreamKind::kFeedback)) return std::nullopt;
  s.stream_id = *sid;
  s.kind = static_cast<StreamKind>(*kind);
  s.flags = *flags;
  s.seq = *seq;
  s.offset = *off;
  s.fec_group = *group;
  s.fec_k = *fk;
  s.fec_r = *fr;
  s.fec_index = *fi;
  s.fec_repaired = *repaired;
  s.gap_events = *gaps;
  if (!get_u32_list(r, s.seg_lens)) return std::nullopt;
  if (!get_u32_list(r, s.sack)) return std::nullopt;
  return parse_overload(r, h);
}

}  // namespace mtp::proto
