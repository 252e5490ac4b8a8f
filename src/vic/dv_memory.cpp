#include "vic/dv_memory.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace dvx::vic {

namespace {

constexpr std::size_t kWord = sizeof(std::uint64_t);

/// `bytes` in words; throws unless it is a whole number of them.
std::size_t whole_words(std::size_t bytes) {
  if (bytes % kWord != 0) {
    throw std::invalid_argument("DvMemory: a block of " + std::to_string(bytes) +
                                " bytes is not a whole number of words");
  }
  return bytes / kWord;
}

}  // namespace

DvMemory::DvMemory(std::size_t words) : words_(words) {
  if (words == 0) throw std::invalid_argument("DvMemory: zero capacity");
  segments_.resize((words + kSegmentWords - 1) / kSegmentWords);
}

void DvMemory::check(std::uint32_t addr, std::size_t count) const {
  if (static_cast<std::size_t>(addr) + count > words_) {
    throw std::out_of_range("DvMemory: access [" + std::to_string(addr) + ", +" +
                            std::to_string(count) + ") beyond " +
                            std::to_string(words_) + " words");
  }
}

std::uint64_t* DvMemory::segment_for_write(std::size_t seg) {
  auto& p = segments_[seg];
  if (!p) p = std::make_unique<std::uint64_t[]>(kSegmentWords);  // value-initialised: zeros
  return p.get();
}

std::uint64_t DvMemory::read(std::uint32_t addr) const {
  check(addr, 1);
  const auto& p = segments_[addr / kSegmentWords];
  return p ? p[addr % kSegmentWords] : 0;
}

void DvMemory::write(std::uint32_t addr, std::uint64_t value) {
  check(addr, 1);
  segment_for_write(addr / kSegmentWords)[addr % kSegmentWords] = value;
}

void DvMemory::write_block(std::uint32_t addr, std::span<const std::byte> words) {
  const std::size_t count = whole_words(words.size());
  check(addr, count);
  std::size_t i = 0;
  while (i < count) {
    const std::size_t a = addr + i;
    const std::size_t seg = a / kSegmentWords;
    const std::size_t off = a % kSegmentWords;
    const std::size_t n = std::min(count - i, kSegmentWords - off);
    std::memcpy(segment_for_write(seg) + off, words.data() + i * kWord, n * kWord);
    i += n;
  }
}

void DvMemory::read_block(std::uint32_t addr, std::span<std::byte> out) const {
  const std::size_t count = whole_words(out.size());
  check(addr, count);
  std::size_t i = 0;
  while (i < count) {
    const std::size_t a = addr + i;
    const std::size_t seg = a / kSegmentWords;
    const std::size_t off = a % kSegmentWords;
    const std::size_t n = std::min(count - i, kSegmentWords - off);
    const auto& p = segments_[seg];
    if (p) {
      std::memcpy(out.data() + i * kWord, p.get() + off, n * kWord);
    } else {
      std::memset(out.data() + i * kWord, 0, n * kWord);
    }
    i += n;
  }
}

std::size_t DvMemory::resident_segments() const noexcept {
  std::size_t n = 0;
  for (const auto& p : segments_) n += p ? 1 : 0;
  return n;
}

}  // namespace dvx::vic
