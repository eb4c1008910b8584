// The MTP packet header (paper Figure 4).
//
// Fields, in the figure's order:
//   SRC Port | DST Port | Msg ID | Msg Pri | Msg Len (bytes/pkts) | Pkt Num |
//   Pkt Offset/Len (bytes) | Path Exclude list of (Path ID, TC) |
//   Path Feedback list of (Path ID, TC, Feedback) |
//   ACK Path Feedback list of (Path ID, TC, Feedback) |
//   SACK list of (Msg ID, Pkt Num) | NACK list of (Msg ID, Pkt Num)
//
// Path Feedback starts empty and is appended by network devices en route;
// the receiver copies it into ACK Path Feedback on the reply, which is how
// pathlet congestion information reaches the sender (paper §3.1.1/§3.1.3).
//
// Packets carry this struct, never its bytes; transport::mtp_header_bytes
// is the one rule for what it costs on the wire.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "proto/boxed.hpp"
#include "proto/types.hpp"

namespace mtp::proto {

/// Per-pathlet congestion feedback, carried as a Type-Length-Value so
/// different pathlets can run different congestion-control algorithms
/// simultaneously (paper §3.1.3).
enum class FeedbackType : std::uint8_t {
  kNone = 0,
  kEcn = 1,       ///< value: 1 if the packet saw queue >= marking threshold (DCTCP-style)
  kRate = 2,      ///< value: explicit fair rate in bits/sec (RCP-style)
  kDelay = 3,     ///< value: queueing delay in ns experienced at the pathlet (Swift-style)
  kTrimmed = 4,   ///< value: unused; payload was trimmed at an overloaded queue (NDP-style)
};

struct Feedback {
  FeedbackType type = FeedbackType::kNone;
  std::uint64_t value = 0;
  bool operator==(const Feedback&) const = default;
};

/// (Path ID, TC) — element of the Path Exclude list: pathlets the sender asks
/// the network to avoid because it has seen congestion feedback for them.
struct PathRef {
  PathletId pathlet = kDefaultPathlet;
  TrafficClassId tc = 0;
  bool operator==(const PathRef&) const = default;
};

/// (Path ID, TC, Feedback) — element of the Path Feedback lists.
struct PathFeedback {
  PathletId pathlet = kDefaultPathlet;
  TrafficClassId tc = 0;
  Feedback feedback;
  bool operator==(const PathFeedback&) const = default;
};

/// (Msg ID, Pkt Num) — element of the SACK/NACK lists.
struct SackEntry {
  MsgId msg_id = 0;
  std::uint32_t pkt_num = 0;
  bool operator==(const SackEntry&) const = default;
  auto operator<=>(const SackEntry&) const = default;
};

template <std::size_t I>
class ListHandle;

/// The five variable-length lists of one MtpHeader, in one heap block.
///
/// The block is a 16-byte header (a 16-bit count per list and the block's
/// byte capacity) followed by the entries, list after list in wire order
/// with no gaps; spare capacity sits at the end. Every entry type is a
/// multiple of 8 bytes, so each list starts aligned. Appending to a list
/// moves the lists after it up by one entry; when the block is full it is
/// reallocated at twice its size. No block is held until the first entry is
/// written, so a one-SACK ACK costs one 32-byte block and a data packet
/// without exclusions or feedback none.
///
/// Value semantics: copies clone (exactly sized; an empty block copies as
/// none), moves steal, and equality compares contents, so a header without
/// a block equals one whose lists were written and cleared.
class HeaderLists {
 public:
  enum List : std::size_t {
    kPathExclude,
    kPathFeedback,
    kAckPathFeedback,
    kSack,
    kNack,
    kNumLists
  };
  template <std::size_t I>
  using Entry = std::tuple_element_t<
      I, std::tuple<PathRef, PathFeedback, PathFeedback, SackEntry, SackEntry>>;

  HeaderLists() = default;
  HeaderLists(const HeaderLists& o);
  HeaderLists(HeaderLists&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  HeaderLists& operator=(const HeaderLists& o);
  HeaderLists& operator=(HeaderLists&& o) noexcept;
  ~HeaderLists() { reset(); }

  /// True while a block is held (a block whose lists were cleared included).
  explicit operator bool() const { return b_ != nullptr; }

  template <std::size_t I>
  std::span<const Entry<I>> get() const {
    if (b_ == nullptr) return {};
    return {reinterpret_cast<const Entry<I>*>(bytes() + offset(I)), b_->count[I]};
  }

  /// Grows the block, if needed, to hold `counts[i]` entries in list i
  /// (or the entries it already holds, if more), so lists written up to
  /// those counts never reallocate. A block it allocates is exactly that
  /// size.
  void reserve(const std::array<std::size_t, kNumLists>& counts);

  friend bool operator==(const HeaderLists& a, const HeaderLists& b);

 private:
  template <std::size_t>
  friend class ListHandle;

  struct Block {
    std::uint16_t count[kNumLists];
    std::uint32_t capacity;  ///< bytes, this header included
  };
  static_assert(sizeof(Block) == 16, "a multiple of 8 keeps the first list aligned");
  static constexpr std::size_t kEntrySize[kNumLists] = {
      sizeof(PathRef), sizeof(PathFeedback), sizeof(PathFeedback), sizeof(SackEntry),
      sizeof(SackEntry)};

  const std::byte* bytes() const { return reinterpret_cast<const std::byte*>(b_); }
  /// Byte offset of list `list`'s first entry (of the free tail for
  /// kNumLists).
  std::size_t offset(std::size_t list) const {
    std::size_t off = sizeof(Block);
    for (std::size_t i = 0; i < list; ++i) off += b_->count[i] * kEntrySize[i];
    return off;
  }
  void reset() noexcept;
  void reallocate(std::size_t capacity);
  /// Sets list `list` to `n` entries, keeping its first min(old, n), and
  /// returns its first entry, allocating the block if none is held. The
  /// caller writes any new entries.
  std::byte* resize(std::size_t list, std::size_t n);

  Block* b_ = nullptr;
};

/// Write access to list I of a header's HeaderLists: the vector-like subset
/// the protocol code needs. Spans and pointers read from the list stay
/// valid only until the next write to any of the header's lists.
template <std::size_t I>
class ListHandle {
 public:
  using value_type = HeaderLists::Entry<I>;

  // NOLINTNEXTLINE(google-explicit-constructor): MtpHeader's accessors return `{lists}`
  ListHandle(HeaderLists& lists) : lists_(&lists) {}

  std::span<const value_type> view() const { return lists_->get<I>(); }
  operator std::span<const value_type>() const { return view(); }
  std::size_t size() const { return view().size(); }
  bool empty() const { return view().empty(); }
  const value_type* begin() const { return view().data(); }
  const value_type* end() const { return view().data() + size(); }
  const value_type& operator[](std::size_t i) const { return view()[i]; }
  const value_type& front() const { return view().front(); }
  const value_type& back() const { return view().back(); }

  void push_back(const value_type& e) {
    const value_type copy = e;  // `e` may sit in the block that resize moves
    const std::size_t n = size();
    std::memcpy(lists_->resize(I, n + 1) + n * sizeof(value_type), &copy, sizeof(value_type));
  }
  /// Replaces the list with `v`, which must not point into this header.
  void assign(std::span<const value_type> v) {
    if (v.empty()) return clear();
    std::memcpy(lists_->resize(I, v.size()), v.data(), v.size_bytes());
  }
  void assign(std::initializer_list<value_type> v) {
    assign(std::span<const value_type>(v.begin(), v.size()));
  }
  void clear() {
    if (*lists_) lists_->resize(I, 0);
  }

 private:
  HeaderLists* lists_;
};

/// Packet roles. DATA carries message payload; ACK carries SACK/NACK lists
/// and echoed path feedback. A trimmed DATA packet keeps its header but has
/// payload_bytes == 0 (NDP-style packet trimming).
enum class MtpPacketType : std::uint8_t { kData = 0, kAck = 1 };

/// Role of an mtp::stream message. kData carries one stream segment, kParity
/// carries one FEC parity segment coding a group of data segments, kFeedback
/// is the receiver's cumulative/selective progress report.
enum class StreamKind : std::uint8_t { kData = 0, kParity = 1, kFeedback = 2 };

inline constexpr std::uint8_t kStreamFin = 1;    ///< data: last segment of the stream
inline constexpr std::uint8_t kStreamReset = 2;  ///< feedback: receiver lost stream state

/// mtp::stream segment/feedback metadata. Rides packet 0 of the MTP message
/// that carries one stream segment (or one feedback report); boxed on
/// MtpHeader because most MTP messages are not stream traffic.
struct StreamHeader {
  std::uint32_t stream_id = 0;
  StreamKind kind = StreamKind::kData;
  std::uint8_t flags = 0;    ///< kStreamFin / kStreamReset
  std::uint32_t seq = 0;     ///< data: segment seq; parity: group base seq; feedback: cumulative ack
  std::uint64_t offset = 0;  ///< data: stream byte offset; feedback: in-order bytes delivered

  // --- FEC group description (parity segments only).
  std::uint32_t fec_group = 0;
  std::uint8_t fec_k = 0;      ///< data segments coded into the group
  std::uint8_t fec_r = 0;      ///< parity segments emitted for the group
  std::uint8_t fec_index = 0;  ///< which parity row [0, fec_r) this segment is
  std::vector<std::uint32_t> seg_lens;  ///< parity: payload length of each data segment

  // --- Receiver loss/repair telemetry (feedback only; drives adaptive r).
  std::vector<std::uint32_t> sack;  ///< seqs received above the cumulative ack (capped)
  std::uint64_t fec_repaired = 0;   ///< cumulative segments repaired by parity
  std::uint32_t gap_events = 0;     ///< cumulative segments first observed missing

  bool fin() const { return flags & kStreamFin; }
  bool reset() const { return flags & kStreamReset; }
  bool operator==(const StreamHeader&) const = default;
};

inline constexpr std::uint8_t kOverloadBusy = 1;     ///< receiver/device rejected the message
inline constexpr std::uint8_t kOverloadExpired = 2;  ///< shed because its deadline had passed

/// mtp::overload metadata. Rides ACKs (receiver-driven admission grants,
/// busy rejects) and packet 0 of deadline-carrying data messages; boxed on
/// MtpHeader because most traffic carries none of it.
struct OverloadInfo {
  std::uint8_t flags = 0;          ///< kOverloadBusy / kOverloadExpired
  /// ACKs: the receiver's per-sender new-message credit (admission window).
  std::uint64_t grant_bytes = 0;
  /// Data packet 0: absolute deadline in sim ns (0 = none). Devices shed
  /// expired messages before service; servers propagate it to children.
  std::uint64_t deadline_ns = 0;

  bool busy() const { return flags & kOverloadBusy; }
  bool expired() const { return flags & kOverloadExpired; }
  bool operator==(const OverloadInfo&) const = default;
};

struct MtpHeader {
  PortNum src_port = 0;
  PortNum dst_port = 0;
  MtpPacketType type = MtpPacketType::kData;

  // --- Message-level information (enables per-message decisions in-network).
  MsgId msg_id = 0;
  std::uint8_t priority = 0;       ///< application-assigned relative priority
  TrafficClassId tc = 0;           ///< entity/tenant the message belongs to
  std::uint64_t msg_len_bytes = 0; ///< total message payload length
  std::uint32_t msg_len_pkts = 0;  ///< total packets in the message
  std::uint32_t pkt_num = 0;       ///< this packet's index within the message
  std::uint64_t pkt_offset = 0;    ///< byte offset of this packet's payload
  std::uint32_t pkt_len = 0;       ///< payload bytes in this packet

  // --- Variable-length lists (pathlet CC + selective acknowledgement).
  //
  // All five live in one heap block behind one pointer (HeaderLists): most
  // data packets in flight carry none of them, and the packet is moved on
  // every hop, so inline lists would dominate sizeof(MtpHeader). Readers
  // get spans (an empty list costs no block); writers get a ListHandle whose
  // first append allocates the block.
  HeaderLists lists;

  std::span<const PathRef> path_exclude() const { return lists.get<HeaderLists::kPathExclude>(); }
  ListHandle<HeaderLists::kPathExclude> path_exclude() { return {lists}; }
  /// Appended by devices en route.
  std::span<const PathFeedback> path_feedback() const {
    return lists.get<HeaderLists::kPathFeedback>();
  }
  ListHandle<HeaderLists::kPathFeedback> path_feedback() { return {lists}; }
  /// Echoed by the receiver.
  std::span<const PathFeedback> ack_path_feedback() const {
    return lists.get<HeaderLists::kAckPathFeedback>();
  }
  ListHandle<HeaderLists::kAckPathFeedback> ack_path_feedback() { return {lists}; }
  std::span<const SackEntry> sack() const { return lists.get<HeaderLists::kSack>(); }
  ListHandle<HeaderLists::kSack> sack() { return {lists}; }
  std::span<const SackEntry> nack() const { return lists.get<HeaderLists::kNack>(); }
  ListHandle<HeaderLists::kNack> nack() { return {lists}; }

  // mtp::stream metadata, present only on stream traffic (packet 0 of the
  // carrying message). Boxed for the same reason as the lists above.
  Boxed<StreamHeader> stream;
  bool has_stream() const { return stream.has_value(); }

  // mtp::overload metadata (grants, busy rejects, deadlines); absent on
  // traffic that never touches the overload subsystem.
  Boxed<OverloadInfo> overload;
  bool has_overload() const { return overload.has_value(); }
  /// Absolute deadline carried by this packet, 0 if none.
  std::uint64_t deadline_ns() const { return overload ? overload->deadline_ns : 0; }

  bool is_ack() const { return type == MtpPacketType::kAck; }
  bool is_last_pkt() const { return msg_len_pkts != 0 && pkt_num + 1 == msg_len_pkts; }

  bool operator==(const MtpHeader&) const = default;
};

}  // namespace mtp::proto
