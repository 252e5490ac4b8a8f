#pragma once
// The VIC's on-board QDR SRAM ("DV memory", paper §II): 32 MB of word-
// addressable storage reachable from both the host (over PCIe) and the
// network. Slots store single 64-bit words; only the last-written value can
// be read (no queueing — that is what the surprise FIFO is for).
//
// Storage is segment-sparse: a simulated cluster instantiates one DvMemory
// per node, and most runs touch a fraction of the 4 Mi words, so segments
// materialize on first write (untouched words read as zero, matching
// power-on state).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace dvx::vic {

class DvMemory {
 public:
  /// Default capacity: 32 MB = 4 Mi words, matching the current VIC.
  static constexpr std::size_t kDefaultWords = (32u << 20) / 8;
  /// Allocation granularity (64 Ki words = 512 KB).
  static constexpr std::size_t kSegmentWords = 64 * 1024;

  explicit DvMemory(std::size_t words = kDefaultWords);

  std::size_t words() const noexcept { return words_; }
  std::size_t bytes() const noexcept { return words_ * 8; }

  std::uint64_t read(std::uint32_t addr) const;
  void write(std::uint32_t addr, std::uint64_t value);

  /// Bulk accessors used by the DMA engines. A span holds whole words, each
  /// in host byte order, so a host buffer of any trivially copyable type
  /// passes through std::as_bytes; a span that is not a whole number of
  /// words throws std::invalid_argument.
  void write_block(std::uint32_t addr, std::span<const std::byte> words);
  void read_block(std::uint32_t addr, std::span<std::byte> out) const;

  /// Number of materialized segments (diagnostics).
  std::size_t resident_segments() const noexcept;

 private:
  void check(std::uint32_t addr, std::size_t count) const;
  std::uint64_t* segment_for_write(std::size_t seg);

  std::size_t words_;
  mutable std::vector<std::unique_ptr<std::uint64_t[]>> segments_;
};

}  // namespace dvx::vic
