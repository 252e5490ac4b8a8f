#include "vic/dv_memory.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dvx::vic {

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

void DvMemory::write_block(std::uint32_t addr, std::span<const std::uint64_t> values) {
  check(addr, values.size());
  std::size_t i = 0;
  while (i < values.size()) {
    const std::size_t a = addr + i;
    const std::size_t seg = a / kSegmentWords;
    const std::size_t off = a % kSegmentWords;
    const std::size_t n = std::min(values.size() - i, kSegmentWords - off);
    std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(i), n,
                segment_for_write(seg) + off);
    i += n;
  }
}

void DvMemory::read_block(std::uint32_t addr, std::span<std::uint64_t> out) const {
  check(addr, out.size());
  std::size_t i = 0;
  while (i < out.size()) {
    const std::size_t a = addr + i;
    const std::size_t seg = a / kSegmentWords;
    const std::size_t off = a % kSegmentWords;
    const std::size_t n = std::min(out.size() - i, kSegmentWords - off);
    const auto& p = segments_[seg];
    if (p) {
      std::copy_n(p.get() + off, n, out.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(i), n, 0);
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
