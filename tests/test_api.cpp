// bismo::api facade tests: JobSpec config overrides, Session batch runs
// with workspace reuse, progress observation, mid-run cancellation, and
// structured JSON/CSV result serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "api/idle_cache.hpp"
#include "io/json.hpp"
#include "math/grid_ops.hpp"
#include "net/wire.hpp"
#include "test_util.hpp"

namespace bismo {
namespace {

/// A fast spec over the shared tiny 32 x 32 target.
api::JobSpec tiny_spec(Method method = Method::kBismoNmn) {
  api::JobSpec spec;
  spec.clip = api::ClipSource::from_grid(testing::tiny_target32());
  spec.method = method;
  spec.config.optics.pixel_nm = 16.0;
  spec.config_overrides = {"source_dim=7",  "outer_steps=4",
                           "unroll_steps=1", "hyper_terms=1",
                           "am_cycles=1",   "am_so_steps=2",
                           "am_mo_steps=2", "socs_kernels=6"};
  return spec;
}

TEST(JobSpecOverrides, ApplyInOrderAndCoverEveryKey) {
  SmoConfig config;
  api::apply_config_overrides(
      config, {"mask_dim=48", "lr_mask=0.25", "optimizer=sgd",
               "source_shape=dipole-x", "outer_steps=7", "mask_dim=96"});
  EXPECT_EQ(config.optics.mask_dim, 96u);  // later override wins
  EXPECT_DOUBLE_EQ(config.lr_mask, 0.25);
  EXPECT_EQ(config.optimizer, OptimizerKind::kSgd);
  EXPECT_EQ(config.initial_source.shape, SourceShape::kDipoleX);
  EXPECT_EQ(config.outer_steps, 7);

  // The documented key table is non-empty and duplicate-free.
  const auto& keys = api::config_keys();
  ASSERT_FALSE(keys.empty());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i].key, keys[j].key);
    }
    EXPECT_FALSE(keys[i].doc.empty()) << keys[i].key;
  }

  // Every key reaches the config: a valid non-default value changes the
  // encoded bytes, and distinct keys change disjoint byte ranges (a key
  // wired to another key's field would overlap it).
  const auto encode = [](const SmoConfig& c) {
    net::WireWriter w;
    net::encode_config(w, c);
    return w.take();
  };
  const std::vector<std::uint8_t> defaults = encode(SmoConfig{});
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [first, last]
  for (const api::ConfigKeyInfo& info : keys) {
    bool applied = false;
    // 192 is the first smooth FFT side in the list (mask_dim's probe).
    for (const char* value :
         {"17", "0.37", "200", "adam", "sgd", "point", "192"}) {
      SmoConfig changed;
      try {
        api::apply_config_override(changed, info.key + "=" + value);
        changed.validate();
      } catch (const std::invalid_argument&) {
        continue;  // not a valid value for this key
      }
      const std::vector<std::uint8_t> bytes = encode(changed);
      ASSERT_EQ(bytes.size(), defaults.size()) << info.key;
      if (bytes == defaults) continue;  // the default value
      std::size_t first = bytes.size();
      std::size_t last = 0;
      for (std::size_t b = 0; b < bytes.size(); ++b) {
        if (bytes[b] == defaults[b]) continue;
        first = std::min(first, b);
        last = b;
      }
      for (const auto& [other_first, other_last] : ranges) {
        EXPECT_TRUE(last < other_first || first > other_last)
            << info.key << " overlaps another key's bytes";
      }
      ranges.emplace_back(first, last);
      applied = true;
      break;
    }
    EXPECT_TRUE(applied) << info.key << " never changed the encoded config";
  }
  EXPECT_EQ(ranges.size(), keys.size());
}

TEST(JobSpecOverrides, RejectionsNameTheKey) {
  SmoConfig config;
  try {
    api::apply_config_override(config, "no_such_knob=1");
    FAIL() << "unknown key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_knob"), std::string::npos);
  }
  try {
    api::apply_config_override(config, "lr_mask=fast");
    FAIL() << "bad value accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("lr_mask"), std::string::npos);
  }
  EXPECT_THROW(api::apply_config_override(config, "not-a-pair"),
               std::invalid_argument);
  EXPECT_THROW(api::apply_config_override(config, "=5"),
               std::invalid_argument);
}

TEST(JobSpecOverrides, RetiredFdEpsScaleKeyIsUnknown) {
  // The hypergradients are exact, so the finite-difference probe magnitude
  // is no longer a config key; an old spec that sets it fails loudly.
  SmoConfig config;
  try {
    api::apply_config_override(config, "fd_eps_scale=1e-4");
    FAIL() << "retired key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fd_eps_scale"), std::string::npos);
  }
  for (const auto& key : api::config_keys()) EXPECT_NE(key.key, "fd_eps_scale");
}

TEST(JobSpecOverrides, IntegerKeysRejectMalformedAndOutOfRangeValues) {
  SmoConfig config;
  const int steps = config.unroll_steps;
  const std::size_t dim = config.optics.mask_dim;
  for (const char* pair :
       {"unroll_steps=abc", "unroll_steps=3x", "unroll_steps=",
        "unroll_steps=4294967297",            // wraps to 1 as an int
        "unroll_steps=99999999999999999999",  // overflows a long
        "mask_dim=-1", "mask_dim=99999999999999999999"}) {
    try {
      api::apply_config_override(config, pair);
      FAIL() << pair << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string key = std::string(pair).substr(
          0, std::string(pair).find('='));
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(config.unroll_steps, steps);  // a rejected value changes nothing
  EXPECT_EQ(config.optics.mask_dim, dim);
  api::apply_config_override(config, "unroll_steps=2147483647");
  EXPECT_EQ(config.unroll_steps, 2147483647);
}

TEST(CheckedParsers, CountsAndPortsRejectWhatStrtoulWouldWrap) {
  EXPECT_EQ(api::parse_size("--threads", "4"), 4u);
  EXPECT_EQ(api::parse_size("--port", "65535", 65535), 65535u);
  EXPECT_EQ(api::parse_int("k", "-7"), -7);
  EXPECT_EQ(api::parse_long("k", "-9000000000"), -9000000000L);
  EXPECT_DOUBLE_EQ(api::parse_double("--halo-nm", "96.5"), 96.5);
  // Trailing text, empty, non-number (the error names flag and value).
  EXPECT_THROW(api::parse_size("--threads", "4cpu"), std::invalid_argument);
  EXPECT_THROW(api::parse_size("--threads", ""), std::invalid_argument);
  EXPECT_THROW(api::parse_double("--halo-nm", "wide"), std::invalid_argument);
  // Negative counts (strtoul turns -1 into ULONG_MAX).
  EXPECT_THROW(api::parse_size("--spawn-workers", "-1"),
               std::invalid_argument);
  // Overflow of the underlying long.
  EXPECT_THROW(api::parse_long("k", "9223372036854775808"),
               std::invalid_argument);
  EXPECT_THROW(api::parse_size("--batch", "18446744073709551617"),
               std::invalid_argument);
  // int narrowing.
  EXPECT_THROW(api::parse_int("k", "2147483648"), std::invalid_argument);
  EXPECT_THROW(api::parse_int("k", "-2147483649"), std::invalid_argument);
  // Upper bound (a port above 65535 would wrap in a uint16_t).
  EXPECT_THROW(api::parse_size("--port", "70000", 65535),
               std::invalid_argument);
  try {
    (void)api::parse_size("--threads", "abc");
    FAIL() << "non-number accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
}

TEST(JobSpecOverrides, InvalidConfigIsCapturedAsJobError) {
  api::JobSpec spec = tiny_spec();
  spec.config_overrides.push_back("lr_mask=-1");
  api::Session session;
  const api::JobResult result = session.run(spec);
  EXPECT_FALSE(result.ok());
  // The validate() message names the offending field and value.
  EXPECT_NE(result.error.find("lr_mask"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("-1"), std::string::npos) << result.error;
}

TEST(SessionRun, SingleJobImprovesLoss) {
  api::Session session;
  const api::JobResult result = session.run(tiny_spec());
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.cancelled());
  ASSERT_FALSE(result.run.trace.empty());
  EXPECT_LT(result.run.final_loss(), result.run.trace.front().loss);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.setup_seconds);
  EXPECT_TRUE(std::isfinite(result.after.l2_nm2));
}

TEST(SessionRun, RawGridFixesMaskDimAndRejectsNonSquare) {
  api::Session session;
  api::JobSpec spec = tiny_spec();
  EXPECT_EQ(session.resolve_config(spec).optics.mask_dim, 32u);

  spec.clip = api::ClipSource::from_grid(RealGrid(32, 16, 0.0));
  const api::JobResult result = session.run(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("square"), std::string::npos);
}

TEST(SessionRun, NonSmoothMaskDimFailsTheJobNamingTheNearestSizes) {
  api::Session session;
  api::JobSpec spec;
  spec.clip = api::ClipSource::generated(DatasetKind::kIccad13, 1);
  spec.method = Method::kAbbeMo;
  spec.config_overrides = {"mask_dim=100", "source_dim=5", "outer_steps=1"};
  const api::JobResult result = session.run(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("mask_dim = 100"), std::string::npos)
      << result.error;
  EXPECT_NE(result.error.find("96 and 104"), std::string::npos)
      << result.error;
}

TEST(SessionRun, LayoutClipDerivesPixelPitchFromTile) {
  Layout clip(640.0);  // 640 nm tile
  clip.add_rect({128, 256, 512, 320});
  api::JobSpec spec;
  spec.clip = api::ClipSource::from_layout(clip);
  spec.config_overrides = {"mask_dim=32"};
  api::Session session;
  const SmoConfig config = session.resolve_config(spec);
  EXPECT_DOUBLE_EQ(config.optics.pixel_nm, 20.0);  // 640 / 32
}

TEST(SessionBatch, SharesWarmWorkspacesAcrossSameShapedJobs) {
  api::Session session;
  std::vector<api::JobSpec> specs(3, tiny_spec(Method::kAbbeMo));
  const std::vector<api::JobResult> results = session.run_batch(specs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].workspaces_reused);
  EXPECT_TRUE(results[1].workspaces_reused);
  EXPECT_TRUE(results[2].workspaces_reused);
  for (const api::JobResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_LT(r.run.final_loss(), r.run.trace.front().loss);
  }
  const api::Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobs_run, 3u);
  EXPECT_EQ(stats.workspace_reuses, 2u);
}

TEST(SessionBatch, ContinuesPastFailedJobs) {
  api::Session session;
  std::vector<api::JobSpec> specs{tiny_spec(), tiny_spec()};
  specs[0].config_overrides.push_back("socs_kernels=0");  // invalid
  const std::vector<api::JobResult> results = session.run_batch(specs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_NE(results[0].error.find("socs_kernels"), std::string::npos);
  EXPECT_TRUE(results[1].ok()) << results[1].error;
}

TEST(SessionBatch, ConcurrentLanesMatchSequentialBitwise) {
  api::Session session;
  std::vector<api::JobSpec> specs(4, tiny_spec(Method::kAbbeMo));
  const std::vector<api::JobResult> seq =
      session.run_batch(specs, api::Session::BatchOptions{1});
  const std::vector<api::JobResult> con =
      session.run_batch(specs, api::Session::BatchOptions{4});
  ASSERT_EQ(seq.size(), 4u);
  ASSERT_EQ(con.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(seq[i].ok()) << seq[i].error;
    ASSERT_TRUE(con[i].ok()) << con[i].error;
    // Lane scheduling is invisible in the results: reductions are
    // slot-deterministic, so parameters agree bitwise.
    EXPECT_TRUE(seq[i].run.theta_m == con[i].run.theta_m);
    EXPECT_TRUE(seq[i].run.theta_j == con[i].run.theta_j);
    EXPECT_EQ(seq[i].after.l2_nm2, con[i].after.l2_nm2);
  }
}

TEST(SessionBatch, ConcurrentProgressEventsAreSerializedAndComplete) {
  std::vector<api::JobEvent> events;
  api::Session::Options options;
  options.on_event = [&events](const api::JobEvent& e) {
    // Safe: the session serializes observer calls.
    if (e.kind == api::JobEvent::Kind::kStep) events.push_back(e);
  };
  api::Session session(options);
  std::vector<api::JobSpec> specs(3, tiny_spec(Method::kAbbeMo));
  const std::vector<api::JobResult> results =
      session.run_batch(specs, api::Session::BatchOptions{3});
  std::size_t steps = 0;
  for (const api::JobResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    steps += r.run.trace.size();
  }
  EXPECT_EQ(events.size(), steps);
  for (const api::JobEvent& e : events) EXPECT_EQ(e.batch_count, 3u);
}

TEST(SessionWorkspaces, CacheEvictsLeastRecentlyUsedPastCap) {
  api::Session session;
  const api::JobSpec small = tiny_spec(Method::kAbbeMo);
  const RealGrid tiny = testing::tiny_target32();

  const api::JobResult first = session.run(small);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.workspaces_reused);
  EXPECT_EQ(first.workspace_evictions, 0u);

  // Four more shapes (the clip padded to 40..64 px) fill the idle cache
  // past its cap of 4: only the fifth pushes the 32-px set, the least
  // recently used, out.
  for (std::size_t dim = 40; dim <= 64; dim += 8) {
    RealGrid padded(dim, dim, 0.0);
    const std::size_t offset = (dim - 32) / 2;
    for (std::size_t r = 0; r < 32; ++r) {
      for (std::size_t c = 0; c < 32; ++c) {
        padded(r + offset, c + offset) = tiny(r, c);
      }
    }
    api::JobSpec spec = small;
    spec.clip = api::ClipSource::from_grid(padded);
    const api::JobResult result = session.run(spec);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_FALSE(result.workspaces_reused);
    EXPECT_EQ(result.workspace_evictions, dim == 64 ? 1u : 0u) << dim;
  }

  // The evicted shape is cold again; once returned it is warm.
  const api::JobResult again = session.run(small);
  EXPECT_FALSE(again.workspaces_reused);
  const api::JobResult warm = session.run(small);
  EXPECT_TRUE(warm.workspaces_reused);

  const api::Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobs_run, 7u);
  EXPECT_GE(stats.workspace_evictions, 2u);
}

// The one warm-object cache behind the session's pools and workspace sets.
using IntCache = api::detail::IdleCache<std::unique_ptr<int>>;

int value_of(const std::unique_ptr<int>& p) { return p != nullptr ? *p : -1; }

TEST(SessionIdleCache, ExactKeyBeatsNearOne) {
  IntCache cache(2);
  EXPECT_EQ(cache.give_back(2, std::make_unique<int>(2)), nullptr);
  EXPECT_EQ(cache.give_back(3, std::make_unique<int>(3)), nullptr);
  // The exact entry wins although the near one is more recently used.
  EXPECT_EQ(value_of(cache.checkout(2)), 2);
  EXPECT_EQ(value_of(cache.checkout(2)), 3);
  EXPECT_EQ(cache.checkout(2), nullptr);
}

TEST(SessionIdleCache, MostRecentlyUsedBreaksTies) {
  IntCache cache(1);
  (void)cache.give_back(8, std::make_unique<int>(1));
  (void)cache.give_back(8, std::make_unique<int>(2));
  EXPECT_EQ(value_of(cache.checkout(8)), 2);
  EXPECT_EQ(value_of(cache.checkout(8)), 1);
}

TEST(SessionIdleCache, NearEntryIsNeverMoreThanStretchTimesTheKey) {
  IntCache pools(2);
  (void)pools.give_back(9, std::make_unique<int>(9));
  (void)pools.give_back(3, std::make_unique<int>(3));
  EXPECT_EQ(pools.checkout(4), nullptr);  // 9 > 2 x 4, and 3 is narrower
  EXPECT_EQ(value_of(pools.checkout(5)), 9);
  EXPECT_EQ(value_of(pools.checkout(2)), 3);

  IntCache workspaces(1);  // exact dimensions only
  (void)workspaces.give_back(64, std::make_unique<int>(64));
  EXPECT_EQ(workspaces.checkout(32), nullptr);
  EXPECT_EQ(workspaces.checkout(48), nullptr);
  EXPECT_EQ(value_of(workspaces.checkout(64)), 64);
}

TEST(SessionIdleCache, EvictsLeastRecentlyUsedPastCapForTheCaller) {
  IntCache cache(1);
  for (int key = 1; key <= static_cast<int>(IntCache::kCapacity); ++key) {
    EXPECT_EQ(cache.give_back(key, std::make_unique<int>(key)), nullptr);
  }
  // A checkout + return refreshes key 1, so key 2 is now the LRU entry.
  (void)cache.give_back(1, cache.checkout(1));
  EXPECT_EQ(value_of(cache.give_back(5, std::make_unique<int>(5))), 2);
  EXPECT_EQ(value_of(cache.give_back(6, std::make_unique<int>(6))), 3);
  EXPECT_EQ(value_of(cache.checkout(1)), 1);
  EXPECT_EQ(cache.checkout(2), nullptr);
}

TEST(SessionProgress, ObserverSeesEveryStepWithJobContext) {
  std::vector<api::JobEvent> events;
  api::Session::Options options;
  options.on_event = [&events](const api::JobEvent& e) {
    if (e.kind == api::JobEvent::Kind::kStep) events.push_back(e);
  };
  api::Session session(options);
  const api::JobResult result = session.run(tiny_spec(Method::kAbbeMo));
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(events.size(), result.run.trace.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].step.step, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(events[i].step.loss, result.run.trace[i].loss);
    EXPECT_EQ(events[i].batch_count, 1u);
    EXPECT_EQ(events[i].planned_steps, 4);
    EXPECT_EQ(events[i].method, "Abbe-MO");
  }
}

TEST(SessionCancel, ObserverCanCancelMidRun) {
  api::Session::Options options;
  api::Session* session_ptr = nullptr;
  int seen = 0;
  bool armed = true;
  options.on_event = [&](const api::JobEvent& e) {
    if (e.kind != api::JobEvent::Kind::kStep) return;
    ++seen;
    if (armed && e.step.step >= 1) session_ptr->request_cancel();
  };
  api::Session session(options);
  session_ptr = &session;

  api::JobSpec spec = tiny_spec(Method::kBismoNmn);
  spec.config_overrides.push_back("outer_steps=50");
  const api::JobResult result = session.run(spec);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.cancelled());
  EXPECT_TRUE(result.run.cancelled);
  // Stopped at the step boundary right after the request: far short of 50.
  EXPECT_GE(result.run.trace.size(), 2u);
  EXPECT_LE(result.run.trace.size(), 4u);
  EXPECT_GE(seen, 2);

  // Cancellation drains only the work that was in flight and re-arms
  // automatically: the next run proceeds normally, no reset required.
  armed = false;
  EXPECT_FALSE(session.cancel_requested());
  const api::JobResult next = session.run(tiny_spec());
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_FALSE(next.cancelled());
  EXPECT_FALSE(next.run.trace.empty());
  EXPECT_FALSE(session.cancel_requested());
}

TEST(SessionCancel, BatchDrainsRemainingJobsAsCancelled) {
  api::Session::Options options;
  api::Session* session_ptr = nullptr;
  options.on_event = [&](const api::JobEvent& e) {
    if (e.kind == api::JobEvent::Kind::kStep && e.batch_index == 0 &&
        e.step.step >= 1) {
      session_ptr->request_cancel();
    }
  };
  api::Session session(options);
  session_ptr = &session;

  std::vector<api::JobSpec> specs(3, tiny_spec(Method::kAbbeMo));
  const std::vector<api::JobResult> results = session.run_batch(specs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].cancelled());
  EXPECT_FALSE(results[0].run.trace.empty());
  EXPECT_TRUE(results[1].cancelled());
  EXPECT_TRUE(results[1].run.trace.empty());
  EXPECT_TRUE(results[2].cancelled());
}

TEST(JobResultJson, BatchDocumentIsStructurallySound) {
  api::Session session;
  std::vector<api::JobSpec> specs(2, tiny_spec(Method::kAbbeMo));
  const std::vector<api::JobResult> results = session.run_batch(specs);

  std::ostringstream out;
  api::write_json(out, results);
  const std::string json = out.str();

  // Balanced braces/brackets and the required summary fields.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"job_count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"ok_count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"workspaces_reused\": true"), std::string::npos);

  std::ostringstream csv;
  api::write_trace_csv(csv, results[0]);
  EXPECT_NE(csv.str().find("step,loss,l2,pvb,seconds"), std::string::npos);
}

TEST(JsonWriter, EscapesAndNonFiniteValues) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.key("text").value("a\"b\\c\nd");
  w.key("nan").value(std::nan(""));
  w.key("count").value(std::size_t{3});
  w.end_object();
  EXPECT_TRUE(w.complete());
  const std::string json = out.str();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
  EXPECT_NE(json.find("\"nan\": null"), std::string::npos);
  EXPECT_THROW(JsonWriter(out).end_object(), std::logic_error);
}

}  // namespace
}  // namespace bismo
