#include "net/frame.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace bismo::net {
namespace {

bool valid_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MsgType::kHello) &&
         raw <= static_cast<std::uint8_t>(MsgType::kGoodbye);
}

/// Read exactly `size` bytes.  Returns the byte count actually read: a
/// short count means EOF (error conditions throw).
std::size_t read_exact(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n == 0) return done;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("net: read failed: ") +
                      std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return done;
}

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a peer that died mid-write must surface as EPIPE, not
    // kill the process with SIGPIPE.
    const ssize_t n =
        ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("net: write failed: ") +
                      std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint64_t frame_checksum(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw WireError("net: frame payload exceeds the 1 GiB cap");
  }
  WireWriter w;
  w.u32(kFrameMagic);
  w.u16(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(frame_checksum(payload.data(), payload.size()));
  std::vector<std::uint8_t> bytes = w.take();
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

ParseStatus parse_frame(const std::uint8_t* data, std::size_t size,
                        Frame* out, std::size_t* consumed) {
  if (size < kFrameHeaderSize) return ParseStatus::kNeedMore;
  WireReader header(data, kFrameHeaderSize);
  if (header.u32() != kFrameMagic) {
    throw WireError("net: bad frame magic");
  }
  const std::uint16_t version = header.u16();
  if (version != kProtocolVersion) {
    throw WireError("net: protocol version mismatch (got " +
                    std::to_string(version) + ", want " +
                    std::to_string(kProtocolVersion) + ")");
  }
  const std::uint8_t raw_type = header.u8();
  if (!valid_type(raw_type)) {
    throw WireError("net: unknown frame type " + std::to_string(raw_type));
  }
  header.u8();  // reserved
  const std::uint32_t length = header.u32();
  if (length > kMaxFramePayload) {
    throw WireError("net: implausible frame length");
  }
  const std::uint64_t checksum = header.u64();
  header.expect_end();  // the 20-byte header must be consumed exactly
  if (size - kFrameHeaderSize < length) return ParseStatus::kNeedMore;
  const std::uint8_t* payload = data + kFrameHeaderSize;
  if (frame_checksum(payload, length) != checksum) {
    throw WireError("net: frame checksum mismatch");
  }
  out->type = static_cast<MsgType>(raw_type);
  out->payload.assign(payload, payload + length);
  *consumed = kFrameHeaderSize + length;
  return ParseStatus::kFrame;
}

Frame decode_frame_exact(const std::vector<std::uint8_t>& bytes) {
  Frame frame;
  std::size_t consumed = 0;
  if (parse_frame(bytes.data(), bytes.size(), &frame, &consumed) !=
      ParseStatus::kFrame) {
    throw WireError("net: truncated frame");
  }
  if (consumed != bytes.size()) {
    throw WireError("net: trailing bytes after frame");
  }
  return frame;
}

bool read_frame(int fd, Frame* out) {
  std::uint8_t header[kFrameHeaderSize];
  const std::size_t got = read_exact(fd, header, kFrameHeaderSize);
  if (got == 0) return false;  // clean EOF at a frame boundary
  if (got < kFrameHeaderSize) {
    throw WireError("net: stream truncated inside a frame header");
  }
  // Validate the header via the streaming parser with zero payload bytes:
  // magic/version/type/length checks fire before any allocation.
  Frame probe;
  std::size_t consumed = 0;
  std::vector<std::uint8_t> buffer(header, header + kFrameHeaderSize);
  if (parse_frame(buffer.data(), buffer.size(), &probe, &consumed) ==
      ParseStatus::kFrame) {
    *out = std::move(probe);  // zero-length payload frame
    return true;
  }
  WireReader length_reader(header + 8, 4);
  const std::uint32_t length = length_reader.u32();
  length_reader.expect_end();
  buffer.resize(kFrameHeaderSize + length);
  if (read_exact(fd, buffer.data() + kFrameHeaderSize, length) < length) {
    throw WireError("net: stream truncated inside a frame payload");
  }
  if (parse_frame(buffer.data(), buffer.size(), out, &consumed) !=
      ParseStatus::kFrame) {
    throw WireError("net: truncated frame");  // unreachable
  }
  return true;
}

void write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> bytes = encode_frame(type, payload);
  write_all(fd, bytes.data(), bytes.size());
}

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kSubmit:
      return "submit";
    case MsgType::kEvent:
      return "event";
    case MsgType::kResult:
      return "result";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kCancel:
      return "cancel";
    case MsgType::kGoodbye:
      return "goodbye";
  }
  return "unknown";
}

}  // namespace bismo::net
