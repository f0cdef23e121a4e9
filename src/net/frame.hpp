// Length-prefixed message framing for the worker protocol.
//
// Every message on a worker connection is one frame:
//
//   u32 magic     "BSMO" (0x4f4d5342 little-endian)
//   u16 version   kProtocolVersion -- mismatches are rejected at decode
//   u8  type      MsgType
//   u8  reserved  0
//   u32 length    payload bytes that follow the header
//   u64 checksum  FNV-1a over the payload
//   ...payload    wire.hpp encoding of the message body
//
// The decoder distinguishes "need more bytes" (a partial frame on a live
// stream) from corruption (bad magic/version/type, an implausible length,
// or a checksum mismatch), which always throws WireError; a stream that
// ends inside a frame is reported as truncation by the fd readers.
#ifndef BISMO_NET_FRAME_HPP
#define BISMO_NET_FRAME_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/wire.hpp"

namespace bismo::net {

/// Message types of the worker protocol.
enum class MsgType : std::uint8_t {
  kHello = 1,      ///< worker -> client: version, name, width, backend
  kSubmit = 2,     ///< client -> worker: job id + JobSpec + submit options
  kEvent = 3,      ///< worker -> client: job id + JobEvent
  kResult = 4,     ///< worker -> client: job id + JobResult (terminal)
  kHeartbeat = 5,  ///< worker -> client: live Session::stats() gauges
  kCancel = 6,     ///< client -> worker: job id
  kGoodbye = 7,    ///< either side: orderly shutdown
};

constexpr std::uint32_t kFrameMagic = 0x4f4d5342;  // "BSMO"
constexpr std::size_t kFrameHeaderSize = 20;
/// Payload cap; a mask grid at the wire side cap is well under this.
constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kHello;
  std::vector<std::uint8_t> payload;
};

/// FNV-1a over a byte span (the frame checksum).
std::uint64_t frame_checksum(const std::uint8_t* data, std::size_t size);

/// Serialize one frame (header + payload).
std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const std::vector<std::uint8_t>& payload);

/// Streaming decode: kNeedMore when `size` bytes are a valid prefix of a
/// frame, kFrame when a whole frame was parsed (`*consumed` bytes).
/// Throws WireError on corruption.
enum class ParseStatus { kNeedMore, kFrame };
ParseStatus parse_frame(const std::uint8_t* data, std::size_t size,
                        Frame* out, std::size_t* consumed);

/// Decode exactly one frame from `bytes`; throws WireError when the buffer
/// is incomplete, corrupt, or has trailing bytes (closed-stream semantics;
/// this is what the corrupt-frame tests drive).
Frame decode_frame_exact(const std::vector<std::uint8_t>& bytes);

/// Blocking fd reader: false on a clean EOF at a frame boundary; throws
/// WireError on mid-frame EOF, corruption, or a socket error.
bool read_frame(int fd, Frame* out);

/// Blocking fd writer (handles partial writes; throws WireError on error).
void write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& payload);

/// Short label for a message type ("hello", "submit", ...).
const char* to_string(MsgType type) noexcept;

}  // namespace bismo::net

#endif  // BISMO_NET_FRAME_HPP
