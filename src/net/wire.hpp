// Binary wire codec for the distributed serving layer.
//
// The api layer's JSON serialization (io/json.hpp) is deliberately
// writer-only -- results flow out to humans and tooling, never back in --
// so the worker protocol uses a compact little-endian binary encoding
// with a proper bounds-checked reader instead of growing a JSON parser.
// Every value the cluster moves (JobSpec with its full SmoConfig and clip
// payload, JobResult with its grids and trace, JobEvent, Session::Stats)
// has an encode/decode pair here; doubles travel as raw IEEE-754 bits so
// NaN/inf metric fields and bitwise-identical grids survive the trip by
// construction.  frame.hpp wraps these payloads in length-prefixed,
// checksummed, versioned frames.
//
// Compatibility is handled at the frame layer (kProtocolVersion in every
// frame header); the payload encoding itself is not self-describing, so
// bumping any struct here means bumping the protocol version.
// `wire_self_check()` round-trips canonical instances and is run by the
// worker on startup and by the dispatcher on connect.
#ifndef BISMO_NET_WIRE_HPP
#define BISMO_NET_WIRE_HPP

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/job_handle.hpp"
#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "api/session.hpp"
#include "math/grid2d.hpp"

namespace bismo::net {

/// Version of the frame + payload encoding.  Bump on any wire change.
/// v2 added the imaging-pipeline mode to JobResult and HelloMsg and two
/// queue-latency SLO gauges to Session::Stats; v3 removes all four; v4
/// drops SubmitMsg's int32 ordering level.
constexpr std::uint16_t kProtocolVersion = 4;

/// Thrown by readers on truncated, corrupt, or out-of-range wire data.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Little-endian append-only buffer writer.
class WireWriter {
 public:
  void u8(std::uint8_t value) { buf_.push_back(value); }
  void u16(std::uint16_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  /// Raw IEEE-754 bits: NaN payloads and signed zeros round-trip exactly.
  void f64(double value);
  void boolean(bool value) { u8(value ? 1 : 0); }
  void str(const std::string& value);
  void grid(const RealGrid& value);

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte span; throws WireError on truncation
/// and on implausible sizes (strings/grids are capped so a corrupt length
/// cannot trigger a giant allocation).
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();
  RealGrid grid();

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool at_end() const noexcept { return pos_ == size_; }
  /// Throw unless the payload was consumed exactly (trailing garbage is
  /// as corrupt as truncation).
  void expect_end() const;

 private:
  const std::uint8_t* need(std::size_t count);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// -- Struct codecs (each encode/decode pair round-trips exactly) ---------

void encode_config(WireWriter& w, const SmoConfig& config);
SmoConfig decode_config(WireReader& r);

void encode_job_spec(WireWriter& w, const api::JobSpec& spec);
api::JobSpec decode_job_spec(WireReader& r);

void encode_job_result(WireWriter& w, const api::JobResult& result);
api::JobResult decode_job_result(WireReader& r);

void encode_job_event(WireWriter& w, const api::JobEvent& event);
api::JobEvent decode_job_event(WireReader& r);

void encode_stats(WireWriter& w, const api::Session::Stats& stats);
api::Session::Stats decode_stats(WireReader& r);

/// Round-trip canonical JobSpec/JobResult/JobEvent/Stats instances through
/// the codec and compare re-encodings byte for byte.  Run on worker
/// startup and dispatcher connect; `error` (optional) receives the first
/// mismatch description.
bool wire_self_check(std::string* error = nullptr);

}  // namespace bismo::net

#endif  // BISMO_NET_WIRE_HPP
