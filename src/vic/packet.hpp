#pragma once
// Data Vortex packet format (paper §II/§III).
//
// Every packet is a 64-bit header plus a 64-bit payload. The header names the
// destination VIC, an optional group counter to decrement on arrival, and a
// destination address that can be a DV-memory word slot, the surprise-packet
// FIFO, a group counter (to set it remotely), or a query (remote read that
// triggers a reply without host intervention).

#include <cstdint>
#include <stdexcept>

namespace dvx::vic {

enum class DestKind : std::uint8_t {
  kDvMemory = 0,      ///< payload written to DV-memory word `addr`
  kFifo = 1,          ///< payload appended to the surprise FIFO
  kGroupCounter = 2,  ///< group counter `addr` is *set* to payload
  kQuery = 3,         ///< DV-memory word `addr` is read; payload is the reply header
};

/// No-group-counter sentinel for Header::counter.
inline constexpr std::uint8_t kNoCounter = 0xff;

struct Header {
  std::uint16_t dst_vic = 0;
  DestKind kind = DestKind::kDvMemory;
  std::uint8_t counter = kNoCounter;  ///< group counter decremented on arrival
  std::uint32_t addr = 0;             ///< DV-memory word index / counter id

  friend bool operator==(const Header&, const Header&) = default;
};

struct Packet {
  Header header;
  std::uint64_t payload = 0;
};

/// A run of DV-memory words for one VIC: `words` payload words land at
/// `addr`, `addr + 1`, ... on VIC `dst`, and each decrements group counter
/// `counter` on arrival (kNoCounter: none). It carries what `words`
/// consecutive kDvMemory packets would, without the per-word headers: on
/// the cached-header DMA path (paper §III) only payloads cross PCIe. The
/// payload travels beside the runs, which consume it in order.
struct Run {
  int dst = 0;
  int counter = kNoCounter;
  std::uint32_t addr = 0;
  std::uint32_t words = 0;
};

/// Encodes a header into its 64-bit wire form:
/// [63:48] dst_vic | [47:46] kind | [45:38] counter | [31:0] addr.
constexpr std::uint64_t encode_header(const Header& h) {
  return (static_cast<std::uint64_t>(h.dst_vic) << 48) |
         (static_cast<std::uint64_t>(h.kind) << 46) |
         (static_cast<std::uint64_t>(h.counter) << 38) |
         static_cast<std::uint64_t>(h.addr);
}

/// Inverse of encode_header.
constexpr Header decode_header(std::uint64_t w) {
  Header h;
  h.dst_vic = static_cast<std::uint16_t>(w >> 48);
  h.kind = static_cast<DestKind>((w >> 46) & 0x3);
  h.counter = static_cast<std::uint8_t>((w >> 38) & 0xff);
  h.addr = static_cast<std::uint32_t>(w & 0xffffffffULL);
  return h;
}

/// Bytes a packet occupies on the wire and on the PCIe bus when the header
/// travels with the payload (direct, non-cached sends).
inline constexpr std::int64_t kPacketBytes = 16;
/// Bytes per payload word (header pre-cached in DV memory).
inline constexpr std::int64_t kWordBytes = 8;

}  // namespace dvx::vic
