// Wire-codec tests for the distributed serving layer (src/net/wire.hpp,
// protocol.hpp, frame.hpp): property-style randomized round-trips of
// JobSpec/JobResult (re-encode byte equality), NaN/inf metric fields,
// empty and maximal grids, the startup self-check, and rejection of
// truncated / corrupt frames.  These suites gate the cluster-smoke CI job
// (ctest -R '^(Wire|Net)').
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/alloc_guard.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/wire.hpp"

namespace bismo {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bitwise double comparison: NaN == NaN, -0.0 != +0.0.
bool same_bits(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

bool grids_equal(const RealGrid& a, const RealGrid& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a.data()[i], b.data()[i])) return false;
  }
  return true;
}

RealGrid random_grid(std::mt19937_64& rng, std::size_t max_side) {
  std::uniform_int_distribution<std::size_t> side(1, max_side);
  const std::size_t rows = side(rng);
  const std::size_t cols = side(rng);
  RealGrid grid(rows, cols);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  for (std::size_t i = 0; i < grid.size(); ++i) grid.data()[i] = value(rng);
  // Sprinkle the values that naive text serialization would destroy.
  if (grid.size() >= 4) {
    grid.data()[0] = kNan;
    grid.data()[1] = kInf;
    grid.data()[2] = -kInf;
    grid.data()[3] = -0.0;
  }
  return grid;
}

std::string random_name(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::size_t> len(0, 40);
  std::uniform_int_distribution<int> byte(0, 255);
  std::string name;
  const std::size_t n = len(rng);
  name.reserve(n);
  // Arbitrary bytes, including NUL and non-UTF8: the wire carries strings
  // as opaque length-prefixed byte runs.
  for (std::size_t i = 0; i < n; ++i) {
    name.push_back(static_cast<char>(byte(rng)));
  }
  return name;
}

api::JobSpec random_spec(std::mt19937_64& rng) {
  api::JobSpec spec;
  spec.name = random_name(rng);
  spec.method = static_cast<Method>(
      std::uniform_int_distribution<int>(0, 7)(rng));
  switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
    case 0:
      spec.clip = api::ClipSource::generated(
          std::uniform_int_distribution<int>(0, 1)(rng) == 0
              ? DatasetKind::kIccad13
              : DatasetKind::kIspd19,
          rng());
      break;
    case 1:
      spec.clip = api::ClipSource::from_grid(random_grid(rng, 12));
      break;
    default:
      spec.clip = api::ClipSource::from_file("clips/" + random_name(rng));
      break;
  }
  const std::size_t overrides =
      std::uniform_int_distribution<std::size_t>(0, 5)(rng);
  for (std::size_t i = 0; i < overrides; ++i) {
    // Decode does not validate override keys (the worker session does, at
    // run time), so arbitrary strings must survive the trip.
    spec.config_overrides.push_back(random_name(rng) + "=" +
                                    random_name(rng));
  }
  spec.config.optics.wavelength_nm =
      std::uniform_real_distribution<double>(13.5, 365.0)(rng);
  spec.config.outer_steps = std::uniform_int_distribution<int>(1, 99)(rng);
  spec.evaluate_solution = rng() % 2 == 0;
  return spec;
}

api::JobResult random_result(std::mt19937_64& rng) {
  api::JobResult result;
  result.job_name = random_name(rng);
  result.method = "Abbe-MO";
  result.clip = random_name(rng);
  result.run.method = result.method;
  result.run.theta_m = random_grid(rng, 16);
  result.run.theta_j = random_grid(rng, 9);
  result.run.wall_seconds =
      std::uniform_real_distribution<double>(0.0, 10.0)(rng);
  result.run.gradient_evaluations =
      std::uniform_int_distribution<long>(0, 1 << 20)(rng);
  result.run.cancelled = rng() % 4 == 0;
  const std::size_t steps =
      std::uniform_int_distribution<std::size_t>(0, 12)(rng);
  for (std::size_t s = 0; s < steps; ++s) {
    StepRecord record;
    record.step = static_cast<int>(s);
    record.loss = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
    record.l2 = record.loss * 2.0;
    record.pvb = record.loss * 3.0;
    record.seconds = 0.25 * static_cast<double>(s);
    result.run.trace.push_back(record);
  }
  // Metrics of failed/degenerate runs legitimately carry NaN and inf.
  result.before.l2_nm2 = kNan;
  result.before.pvb_nm2 = kInf;
  result.before.loss = -kInf;
  result.after.l2_nm2 =
      std::uniform_real_distribution<double>(0.0, 1e4)(rng);
  result.after.epe_violations = rng() % 64;
  result.after.epe_samples = 64 + rng() % 64;
  result.queued_ms = std::uniform_real_distribution<double>(0.0, 50.0)(rng);
  result.run_ms = std::uniform_real_distribution<double>(0.0, 500.0)(rng);
  result.workspaces_reused = rng() % 2 == 0;
  result.retries = rng() % 4;
  result.fft_backend = "scalar";
  if (rng() % 4 == 0) result.error = random_name(rng);
  return result;
}

template <typename T, typename Encode>
std::vector<std::uint8_t> encoded(const T& value, Encode encode) {
  net::WireWriter w;
  encode(w, value);
  return w.bytes();
}

TEST(WireScalars, PrimitivesAndSpecialDoublesRoundTrip) {
  net::WireWriter w;
  w.u8(0);
  w.u8(255);
  w.u16(0xffff);
  w.u32(0xdeadbeef);
  w.u64(~std::uint64_t{0});
  w.i32(-1);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(kNan);
  w.f64(kInf);
  w.f64(-kInf);
  w.f64(-0.0);
  w.boolean(true);
  w.str("");
  w.str(std::string("nul\0inside", 10));

  net::WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u8(), 255u);
  EXPECT_EQ(r.u16(), 0xffffu);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), ~std::uint64_t{0});
  EXPECT_EQ(r.i32(), -1);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), kInf);
  EXPECT_EQ(r.f64(), -kInf);
  EXPECT_TRUE(same_bits(r.f64(), -0.0));
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_THROW(r.u8(), net::WireError);  // reading past the end
}

TEST(WireGrids, EmptyAndValueGridsRoundTripBitwise) {
  std::mt19937_64 rng(7);
  for (const RealGrid& grid :
       {RealGrid(), RealGrid(1, 1), random_grid(rng, 24)}) {
    net::WireWriter w;
    w.grid(grid);
    net::WireReader r(w.bytes());
    EXPECT_TRUE(grids_equal(r.grid(), grid));
    EXPECT_NO_THROW(r.expect_end());
  }
}

TEST(WireGrids, DegenerateAndImplausibleShapesThrow) {
  {
    // rows == 0 with cols != 0 cannot come from a real grid.
    net::WireWriter w;
    w.u32(0);
    w.u32(3);
    net::WireReader r(w.bytes());
    EXPECT_THROW(r.grid(), net::WireError);
  }
  {
    // A corrupt side length must throw, not attempt the allocation.
    net::WireWriter w;
    w.u32(0x7fffffff);
    w.u32(2);
    net::WireReader r(w.bytes());
    EXPECT_THROW(r.grid(), net::WireError);
  }
  {
    // Plausible shape, truncated values.
    net::WireWriter w;
    w.u32(2);
    w.u32(2);
    w.f64(1.0);
    net::WireReader r(w.bytes());
    EXPECT_THROW(r.grid(), net::WireError);
  }
  {
    // A side-cap-legal 16384 x 16384 header over 8 bytes: the 2 GiB grid
    // must be rejected against the bytes left, before it is allocated.
    // Throwing allocates the exception's message, so the hostile header
    // must cost exactly what a header rejected on its side cap costs.
    const auto rejection_allocations = [](std::uint32_t rows,
                                          std::uint32_t cols) {
      net::WireWriter w;
      w.u32(rows);
      w.u32(cols);
      w.f64(1.0);
      net::WireReader r(w.bytes());
      core::AllocGuard guard;
      EXPECT_THROW(r.grid(), net::WireError) << rows << "x" << cols;
      return guard.allocations();
    };
    const std::size_t hostile = rejection_allocations(16384, 16384);
    const std::size_t side_cap = rejection_allocations(16385, 1);
    if (core::AllocGuard::enforced()) {
      EXPECT_EQ(hostile, side_cap);
    }
  }
}

TEST(WireSpecs, RandomizedRoundTripReencodesByteExact) {
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const api::JobSpec spec = random_spec(rng);
    const std::vector<std::uint8_t> bytes =
        encoded(spec, net::encode_job_spec);
    net::WireReader r(bytes);
    const api::JobSpec back = net::decode_job_spec(r);
    EXPECT_NO_THROW(r.expect_end());
    // Byte-exact re-encoding covers every field at once; spot checks keep
    // the failure readable.
    EXPECT_EQ(encoded(back, net::encode_job_spec), bytes) << "trial " << trial;
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.method, spec.method);
    EXPECT_EQ(back.config_overrides, spec.config_overrides);
    EXPECT_EQ(back.clip.kind, spec.clip.kind);
    EXPECT_TRUE(grids_equal(back.clip.grid, spec.clip.grid));
  }
}

TEST(WireResults, RandomizedRoundTripKeepsNanInfAndGridsBitwise) {
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const api::JobResult result = random_result(rng);
    const std::vector<std::uint8_t> bytes =
        encoded(result, net::encode_job_result);
    net::WireReader r(bytes);
    const api::JobResult back = net::decode_job_result(r);
    EXPECT_NO_THROW(r.expect_end());
    EXPECT_EQ(encoded(back, net::encode_job_result), bytes)
        << "trial " << trial;
    EXPECT_TRUE(std::isnan(back.before.l2_nm2));
    EXPECT_EQ(back.before.pvb_nm2, kInf);
    EXPECT_EQ(back.before.loss, -kInf);
    EXPECT_TRUE(grids_equal(back.run.theta_m, result.run.theta_m));
    EXPECT_TRUE(grids_equal(back.run.theta_j, result.run.theta_j));
    EXPECT_EQ(back.run.trace.size(), result.run.trace.size());
    EXPECT_EQ(back.retries, result.retries);
    EXPECT_EQ(back.error, result.error);
  }
}

TEST(WireSpecs, TruncatedPayloadThrowsEverywhere) {
  std::mt19937_64 rng(9);
  const std::vector<std::uint8_t> bytes =
      encoded(random_spec(rng), net::encode_job_spec);
  ASSERT_GT(bytes.size(), 8u);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    net::WireReader r(bytes.data(), cut);
    EXPECT_THROW(
        {
          (void)net::decode_job_spec(r);
          r.expect_end();  // a prefix that decodes must at least not end
        },
        net::WireError)
        << "cut at " << cut;
  }
}

TEST(WireSpecs, GarbageAndOutOfRangeEnumsThrow) {
  {
    // 0xff fill: the leading name length claims ~4 GiB, over the 1 MiB cap.
    const std::vector<std::uint8_t> garbage(64, 0xff);
    net::WireReader r(garbage);
    EXPECT_THROW((void)net::decode_job_spec(r), net::WireError);
  }
  {
    // An event whose kind byte is far past kFinished.
    net::WireWriter w;
    w.u8(200);
    net::WireReader r(w.bytes());
    EXPECT_THROW((void)net::decode_job_event(r), net::WireError);
  }
}

TEST(WireConfig, DefaultConfigBytesArePinned) {
  // Config pin recorded for protocol v3, SubmitMsg pin for v4.  A
  // reordered, added or removed config or SubmitMsg field changes these;
  // bump kProtocolVersion and re-pin together.
  ASSERT_EQ(net::kProtocolVersion, 4);
  const auto fnv1a = [](const std::vector<std::uint8_t>& bytes) {
    std::uint64_t hash = 1469598103934665603ull;
    for (const std::uint8_t byte : bytes) {
      hash ^= byte;
      hash *= 1099511628211ull;
    }
    return hash;
  };
  const std::vector<std::uint8_t> config =
      encoded(SmoConfig{}, net::encode_config);
  EXPECT_EQ(config.size(), 251u);
  EXPECT_EQ(fnv1a(config), 0x0bee99865c9beceaull);
  const std::vector<std::uint8_t> submit =
      encoded(net::SubmitMsg{}, net::encode_submit);
  EXPECT_EQ(submit.size(), 335u);
  EXPECT_EQ(fnv1a(submit), 0x1ce5be4185c3a11aull);
}

TEST(WireSelfCheck, CanonicalInstancesRoundTrip) {
  std::string error;
  EXPECT_TRUE(net::wire_self_check(&error)) << error;
}

TEST(WireProtocol, MessagesRoundTripByteExact) {
  std::mt19937_64 rng(77);

  net::HelloMsg hello;
  hello.name = "worker-3";
  hello.width = 8;
  hello.fft_backend = "avx2";
  hello.self_check_ok = true;
  {
    const auto bytes = encoded(hello, net::encode_hello);
    net::WireReader r(bytes);
    const net::HelloMsg back = net::decode_hello(r);
    r.expect_end();
    EXPECT_EQ(encoded(back, net::encode_hello), bytes);
    EXPECT_EQ(back.version, net::kProtocolVersion);
    EXPECT_EQ(back.name, hello.name);
    EXPECT_TRUE(back.self_check_ok);
  }

  net::SubmitMsg submit;
  submit.job_id = rng();
  submit.spec = random_spec(rng);
  submit.coalesce_key = rng();
  submit.lanes_hint = 4;
  submit.batch_index = 2;
  submit.batch_count = 7;
  {
    const auto bytes = encoded(submit, net::encode_submit);
    net::WireReader r(bytes);
    const net::SubmitMsg back = net::decode_submit(r);
    r.expect_end();
    EXPECT_EQ(encoded(back, net::encode_submit), bytes);
    EXPECT_EQ(back.job_id, submit.job_id);
  }

  net::EventMsg event;
  event.job_id = rng();
  event.event.kind = api::JobEvent::Kind::kStep;
  event.event.job_name = "tile[1,2]";
  event.event.step.step = 5;
  event.event.step.loss = kNan;
  event.event.planned_steps = 60;
  {
    const auto bytes = encoded(event, net::encode_event_msg);
    net::WireReader r(bytes);
    const net::EventMsg back = net::decode_event_msg(r);
    r.expect_end();
    EXPECT_EQ(encoded(back, net::encode_event_msg), bytes);
    EXPECT_EQ(back.event.kind, api::JobEvent::Kind::kStep);
    EXPECT_TRUE(std::isnan(back.event.step.loss));
  }

  net::ResultMsg result;
  result.job_id = rng();
  result.result = random_result(rng);
  {
    const auto bytes = encoded(result, net::encode_result_msg);
    net::WireReader r(bytes);
    const net::ResultMsg back = net::decode_result_msg(r);
    r.expect_end();
    EXPECT_EQ(encoded(back, net::encode_result_msg), bytes);
  }

  net::HeartbeatMsg beat;
  beat.stats.jobs_submitted = 11;
  beat.stats.queue_depth = 3;
  beat.stats.coalesced_jobs = 5;
  beat.jobs_in_flight = 2;
  {
    const auto bytes = encoded(beat, net::encode_heartbeat);
    net::WireReader r(bytes);
    const net::HeartbeatMsg back = net::decode_heartbeat(r);
    r.expect_end();
    EXPECT_EQ(encoded(back, net::encode_heartbeat), bytes);
    EXPECT_EQ(back.stats.queue_depth, 3u);
    EXPECT_EQ(back.jobs_in_flight, 2u);
  }

  net::CancelMsg cancel;
  cancel.job_id = 42;
  {
    const auto bytes = encoded(cancel, net::encode_cancel);
    net::WireReader r(bytes);
    EXPECT_EQ(net::decode_cancel(r).job_id, 42u);
    r.expect_end();
  }
}

TEST(WireFrames, EveryTruncatedPrefixAsksForMoreBytes) {
  std::mt19937_64 rng(12);
  net::WireWriter w;
  net::encode_submit(w, net::SubmitMsg{1, random_spec(rng), 0, 0, 0, 1});
  const std::vector<std::uint8_t> frame =
      net::encode_frame(net::MsgType::kSubmit, w.bytes());

  for (std::size_t len = 0; len < frame.size(); ++len) {
    net::Frame out;
    std::size_t consumed = 0;
    EXPECT_EQ(net::parse_frame(frame.data(), len, &out, &consumed),
              net::ParseStatus::kNeedMore)
        << "prefix " << len;
    // Closed-stream semantics: a partial frame in a finished buffer is
    // truncation, not "wait for more".
    EXPECT_THROW((void)net::decode_frame_exact(std::vector<std::uint8_t>(
                     frame.begin(), frame.begin() + len)),
                 net::WireError)
        << "prefix " << len;
  }

  net::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(net::parse_frame(frame.data(), frame.size(), &out, &consumed),
            net::ParseStatus::kFrame);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(out.type, net::MsgType::kSubmit);
  EXPECT_EQ(out.payload, w.bytes());
}

TEST(WireFrames, CorruptHeadersAndPayloadsThrow) {
  net::WireWriter w;
  net::encode_cancel(w, net::CancelMsg{9});
  const std::vector<std::uint8_t> good =
      net::encode_frame(net::MsgType::kCancel, w.bytes());

  const auto expect_corrupt = [&](std::size_t index, std::uint8_t value) {
    std::vector<std::uint8_t> bad = good;
    bad[index] = value;
    net::Frame out;
    std::size_t consumed = 0;
    EXPECT_THROW(net::parse_frame(bad.data(), bad.size(), &out, &consumed),
                 net::WireError)
        << "byte " << index;
  };
  expect_corrupt(0, 'X');   // magic
  expect_corrupt(4, 0x7f);  // version
  expect_corrupt(6, 0);     // type below the enum range
  expect_corrupt(6, 99);    // type above the enum range
  expect_corrupt(11, 0xff); // length beyond the payload cap
  expect_corrupt(12, good[12] ^ 0xaa);  // checksum
  expect_corrupt(good.size() - 1, good.back() ^ 0x01);  // payload bit flip

  // Frames of any other protocol version are refused by name: v3 carried
  // a SubmitMsg field that v4 dropped, so its payloads would misdecode.
  EXPECT_EQ(net::kProtocolVersion, 4);
  for (const std::uint16_t version : {1, 2, 3, 5}) {
    std::vector<std::uint8_t> stale = good;
    stale[4] = static_cast<std::uint8_t>(version & 0xff);
    stale[5] = static_cast<std::uint8_t>(version >> 8);
    net::Frame out;
    std::size_t consumed = 0;
    try {
      net::parse_frame(stale.data(), stale.size(), &out, &consumed);
      ADD_FAILURE() << "a v" << version << " frame was accepted";
    } catch (const net::WireError& e) {
      EXPECT_NE(std::string(e.what()).find("version mismatch"),
                std::string::npos)
          << e.what();
    }
  }

  // Trailing bytes after a complete frame violate exact-decode semantics.
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_THROW((void)net::decode_frame_exact(trailing), net::WireError);
  EXPECT_NO_THROW((void)net::decode_frame_exact(good));
}

}  // namespace
}  // namespace bismo
