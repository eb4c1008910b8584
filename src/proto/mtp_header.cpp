#include "proto/mtp_header.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

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

}  // namespace mtp::proto
