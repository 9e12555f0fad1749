// Checkpoint/restore tests: encode/decode roundtrip and determinism,
// corruption detection (a checkpoint is never trusted unverified), detector
// snapshot/restore equivalence, atomic file rotation, and the
// stop -> new-daemon resume path whose combined alert set must equal an
// uninterrupted run's.
#include "daemon/checkpoint.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/streaming_detector.h"
#include "daemon/daemon.h"
#include "daemon/packet_source.h"
#include "net/packet.h"
#include "trace_builder.h"

namespace rloop::daemon {
namespace {

namespace fs = std::filesystem;
using net::Ipv4Addr;
using rloop::testing::TraceBuilder;

std::string render(const core::LoopAlert& a) {
  std::ostringstream out;
  out << a.prefix24.to_string() << " first=" << a.first_seen
      << " raised=" << a.raised_at << " replicas=" << a.replicas
      << " delta=" << a.ttl_delta;
  return out.str();
}

// A trace with loop activity spread across its whole length, so cutting it
// anywhere leaves in-flight replica streams on both sides of the cut.
net::Trace make_loopy_trace() {
  TraceBuilder builder;
  builder.replica_stream(0, Ipv4Addr(203, 0, 113, 10), 60, 7, 8, 2,
                         net::kMillisecond);
  builder.replica_stream(3 * net::kMillisecond, Ipv4Addr(198, 18, 0, 10), 100,
                         8, 12, 3, net::kMillisecond);
  // A stream that STRADDLES the midpoint cut: only 2 replicas before it.
  builder.replica_stream(9 * net::kMillisecond, Ipv4Addr(192, 0, 2, 20), 80,
                         9, 6, 2, net::kMillisecond);
  for (int i = 0; i < 40; ++i) {
    builder.packet(i * net::kMillisecond / 2,
                   Ipv4Addr(10, 0, static_cast<std::uint8_t>(i), 1), 64,
                   static_cast<std::uint16_t>(100 + i));
  }
  // Late repeat on the first prefix: inside the hold-down, so a restore that
  // lost the hold-down table would double-alert here.
  builder.replica_stream(15 * net::kMillisecond, Ipv4Addr(203, 0, 113, 10),
                         50, 17, 5, 2, net::kMillisecond);
  return std::move(builder.trace());
}

CheckpointState make_state() {
  net::Trace trace = make_loopy_trace();
  core::StreamingDetector detector({}, nullptr);
  for (const auto& rec : trace.records()) {
    detector.on_packet(rec.ts, rec.bytes());
  }
  CheckpointState state;
  state.seq = 42;
  state.wall_unix_s = 1754600000;
  state.source_offset = trace.size();
  state.pushed = trace.size();
  state.consumed = trace.size();
  state.dropped = 0;
  state.epochs = 7;
  state.alerts = detector.alerts_raised();
  state.detector = detector.snapshot();
  return state;
}

void expect_states_equal(const CheckpointState& a, const CheckpointState& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.wall_unix_s, b.wall_unix_s);
  EXPECT_EQ(a.source_offset, b.source_offset);
  EXPECT_EQ(a.pushed, b.pushed);
  EXPECT_EQ(a.consumed, b.consumed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_EQ(a.detector.last_ts, b.detector.last_ts);
  EXPECT_EQ(a.detector.packets_seen, b.detector.packets_seen);
  EXPECT_EQ(a.detector.alerts_raised, b.detector.alerts_raised);
  EXPECT_EQ(a.detector.reordered, b.detector.reordered);
  EXPECT_EQ(a.detector.reorder_dropped, b.detector.reorder_dropped);
  EXPECT_EQ(a.detector.evicted, b.detector.evicted);
  EXPECT_EQ(a.detector.sampled_dropped, b.detector.sampled_dropped);
  EXPECT_EQ(a.detector.peak_open, b.detector.peak_open);
  EXPECT_EQ(a.detector.since_sweep, b.detector.since_sweep);
  ASSERT_EQ(a.detector.open.size(), b.detector.open.size());
  for (std::size_t i = 0; i < a.detector.open.size(); ++i) {
    const auto& [ka, ea] = a.detector.open[i];
    const auto& [kb, eb] = b.detector.open[i];
    EXPECT_TRUE(ka == kb) << "open entry " << i << " key mismatch";
    EXPECT_EQ(ea.first_ts, eb.first_ts);
    EXPECT_EQ(ea.last_ts, eb.last_ts);
    EXPECT_EQ(ea.last_ttl, eb.last_ttl);
    EXPECT_EQ(ea.replicas, eb.replicas);
    EXPECT_EQ(ea.last_delta, eb.last_delta);
    EXPECT_EQ(ea.prefix24, eb.prefix24);
  }
  ASSERT_EQ(a.detector.holddowns.size(), b.detector.holddowns.size());
  for (std::size_t i = 0; i < a.detector.holddowns.size(); ++i) {
    EXPECT_EQ(a.detector.holddowns[i].first, b.detector.holddowns[i].first);
    EXPECT_EQ(a.detector.holddowns[i].second, b.detector.holddowns[i].second);
  }
}

// Fresh per-test checkpoint directory.
std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/rloop_ckpt_" + name;
  fs::remove_all(dir);
  return dir;
}

TEST(Checkpoint, EncodeDecodeRoundtripsEveryField) {
  const CheckpointState state = make_state();
  ASSERT_GT(state.detector.open.size(), 0u) << "state must be non-trivial";
  ASSERT_GT(state.detector.holddowns.size(), 0u);

  const std::string bytes = encode_checkpoint(state);
  CheckpointState decoded;
  std::string error;
  ASSERT_TRUE(decode_checkpoint(bytes, decoded, &error)) << error;
  expect_states_equal(state, decoded);
}

TEST(Checkpoint, EncodingIsDeterministic) {
  // Two detectors fed identically hold equal state; both must serialize to
  // the exact same bytes despite unordered_map iteration order.
  net::Trace trace = make_loopy_trace();
  auto feed = [&trace] {
    auto d = std::make_unique<core::StreamingDetector>(
        core::StreamingConfig{}, nullptr);
    for (const auto& rec : trace.records()) d->on_packet(rec.ts, rec.bytes());
    return d;
  };
  CheckpointState a, b;
  a.seq = b.seq = 1;
  a.detector = feed()->snapshot();
  b.detector = feed()->snapshot();
  EXPECT_EQ(encode_checkpoint(a), encode_checkpoint(b));
  EXPECT_EQ(encode_checkpoint(a), encode_checkpoint(a));
}

// FNV-1a 64 over the whole frame, computed here rather than through the
// codec's own checksum so the pin does not move with the code it guards.
std::uint64_t frame_fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Taken from the v1 codec; move them only together with a version bump.
constexpr std::size_t kPinnedSize = 3687;
constexpr std::uint64_t kPinnedFnv = 0x272df96cbdd7b2cfULL;

TEST(Checkpoint, EncodingIsPinnedAtVersion1) {
  // The v1 frame of a fixed state, pinned byte for byte: a rebuild of the
  // detector or the codec that changes the payload layout must bump the
  // version rather than silently reinterpret snapshots already on disk.
  const std::string bytes = encode_checkpoint(make_state());
  EXPECT_EQ(bytes.size(), kPinnedSize);
  EXPECT_EQ(frame_fnv1a64(bytes), kPinnedFnv);
}

TEST(Checkpoint, CorruptionIsAlwaysDetected) {
  const CheckpointState state = make_state();
  const std::string good = encode_checkpoint(state);
  CheckpointState out;
  std::string error;

  // Every single-byte flip anywhere in the frame must be caught: header
  // fields break magic/version/size checks, payload bytes break the
  // checksum.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    EXPECT_FALSE(decode_checkpoint(bad, out, &error))
        << "flip at byte " << i << " went undetected";
  }
  // Truncation at any boundary, including mid-header.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                std::size_t{23}, good.size() / 2,
                                good.size() - 1}) {
    EXPECT_FALSE(decode_checkpoint(std::string_view(good).substr(0, cut), out,
                                   &error))
        << "truncation to " << cut << " bytes went undetected";
  }
  // Trailing garbage changes the frame size: reject, do not ignore.
  EXPECT_FALSE(decode_checkpoint(good + "x", out, &error));
  EXPECT_TRUE(decode_checkpoint(good, out, &error)) << error;
}

TEST(Checkpoint, UnknownVersionIsRejected) {
  std::string bytes = encode_checkpoint(make_state());
  bytes[4] = 99;  // version field (little-endian u32 at offset 4)
  CheckpointState out;
  std::string error;
  EXPECT_FALSE(decode_checkpoint(bytes, out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// The semantic core of crash safety: a restore()d detector fed the packets
// that followed the snapshot produces exactly the alerts the original
// produces — including hold-down suppressions that depend on pre-snapshot
// alert history.
TEST(Checkpoint, RestoredDetectorReproducesAlertsExactly) {
  net::Trace trace = make_loopy_trace();
  const std::size_t cut = trace.size() / 2;

  std::vector<std::string> original_alerts;
  core::StreamingDetector original(
      {}, [&](const core::LoopAlert& a) {
        original_alerts.push_back(render(a));
      });
  for (std::size_t i = 0; i < cut; ++i) {
    const auto& rec = trace.records()[i];
    original.on_packet(rec.ts, rec.bytes());
  }

  // Roundtrip the snapshot through the wire format, like a real restart.
  CheckpointState state;
  state.detector = original.snapshot();
  CheckpointState decoded;
  ASSERT_TRUE(decode_checkpoint(encode_checkpoint(state), decoded, nullptr));

  std::vector<std::string> restored_alerts = original_alerts;
  core::StreamingDetector restored(
      {}, [&](const core::LoopAlert& a) {
        restored_alerts.push_back(render(a));
      });
  restored.restore(decoded.detector);
  EXPECT_EQ(restored.packets_seen(), original.packets_seen());
  EXPECT_EQ(restored.open_entries(), original.open_entries());

  for (std::size_t i = cut; i < trace.size(); ++i) {
    const auto& rec = trace.records()[i];
    original.on_packet(rec.ts, rec.bytes());
    restored.on_packet(rec.ts, rec.bytes());
  }

  EXPECT_EQ(restored_alerts, original_alerts);
  EXPECT_EQ(restored.alerts_raised(), original.alerts_raised());
  EXPECT_EQ(restored.open_entries(), original.open_entries());
  ASSERT_FALSE(original_alerts.empty()) << "trace must alert after the cut";
}

TEST(Checkpoint, WriteLoadRoundtripAndPruning) {
  const std::string dir = temp_dir("rotate");
  std::string error;
  CheckpointState state = make_state();

  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    state.seq = seq;
    state.epochs = seq * 10;
    ASSERT_TRUE(write_checkpoint_file(dir, state, &error)) << error;
  }

  // Newest two survive (the previous snapshot outlives the next write).
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files.size(), 2u);

  CheckpointState loaded;
  ASSERT_TRUE(load_latest_checkpoint(dir, loaded, &error)) << error;
  EXPECT_EQ(loaded.seq, 5u);
  EXPECT_EQ(loaded.epochs, 50u);
}

TEST(Checkpoint, LoadSkipsCorruptNewestAndFallsBack) {
  const std::string dir = temp_dir("fallback");
  std::string error;
  CheckpointState state = make_state();
  state.seq = 1;
  ASSERT_TRUE(write_checkpoint_file(dir, state, &error)) << error;
  state.seq = 2;
  ASSERT_TRUE(write_checkpoint_file(dir, state, &error)) << error;

  // Corrupt the newest in place (torn write / bad sector): one flipped
  // payload byte.
  const std::string newest = dir + "/ckpt-2.rlck";
  {
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(30);
    char c;
    f.seekg(30);
    f.get(c);
    f.seekp(30);
    f.put(static_cast<char>(c ^ 0xff));
  }

  CheckpointState loaded;
  ASSERT_TRUE(load_latest_checkpoint(dir, loaded, &error))
      << "must fall back to the older valid snapshot: " << error;
  EXPECT_EQ(loaded.seq, 1u);

  // Corrupt the older one too: now nothing verifies — cold start, not crash.
  const std::string older = dir + "/ckpt-1.rlck";
  {
    std::ofstream f(older, std::ios::binary | std::ios::trunc);
    f << "not a checkpoint";
  }
  EXPECT_FALSE(load_latest_checkpoint(dir, loaded, &error));
}

TEST(Checkpoint, MissingDirectoryIsColdStart) {
  CheckpointState loaded;
  std::string error;
  EXPECT_FALSE(load_latest_checkpoint(temp_dir("never_created"), loaded,
                                      &error));
}

// End-to-end resume: daemon A processes a prefix of the stream and writes a
// final checkpoint on graceful drain; daemon B starts against the FULL
// stream with the same checkpoint dir, restores, skips the consumed prefix,
// and handles the suffix. A's alerts + B's alerts must equal an
// uninterrupted run's, byte for byte.
TEST(Checkpoint, DaemonResumeMatchesUninterruptedRun) {
  net::Trace full = make_loopy_trace();
  const std::size_t cut = full.size() / 2;
  net::Trace prefix("prefix", 0);
  for (std::size_t i = 0; i < cut; ++i) {
    const auto& rec = full.records()[i];
    prefix.add(rec.ts, rec.bytes(), rec.wire_len);
  }

  DaemonConfig config;
  config.back_pressure = BackPressure::block;  // lossless: exact equality

  // Reference: one uninterrupted run.
  std::vector<std::string> expected;
  {
    Daemon d(config, std::make_unique<ReplaySource>(full, "full", 0),
             [&](const core::LoopAlert& a) { expected.push_back(render(a)); });
    const DaemonStats stats = d.run();
    ASSERT_TRUE(stats.invariant_ok());
    ASSERT_FALSE(d.restore_info().restored);
  }
  ASSERT_GE(expected.size(), 3u) << "trace must alert on both sides of cut";

  for (const bool use_ring : {true, false}) {
    SCOPED_TRACE(use_ring ? "ring" : "inline");
    config.use_ring = use_ring;
    config.checkpoint_dir =
        temp_dir(use_ring ? "resume_ring" : "resume_inline");

    std::vector<std::string> alerts;
    std::uint64_t consumed_by_a = 0;
    {
      Daemon a(config, std::make_unique<ReplaySource>(prefix, "prefix", 0),
               [&](const core::LoopAlert& al) {
                 alerts.push_back(render(al));
               });
      const DaemonStats stats = a.run();
      ASSERT_TRUE(stats.invariant_ok());
      ASSERT_FALSE(a.restore_info().restored);
      EXPECT_GE(stats.checkpoints_written, 1u)
          << "graceful drain must cut a final snapshot";
      consumed_by_a = stats.consumed;
    }
    ASSERT_EQ(consumed_by_a, cut);

    {
      Daemon b(config, std::make_unique<ReplaySource>(full, "full", 0),
               [&](const core::LoopAlert& al) {
                 alerts.push_back(render(al));
               });
      ASSERT_TRUE(b.restore_info().restored);
      EXPECT_EQ(b.restore_info().source_offset, cut);
      const DaemonStats stats = b.run();
      ASSERT_TRUE(stats.invariant_ok());
      EXPECT_EQ(stats.restored_seq, b.restore_info().seq);
      // Resumed ledger covers the whole stream: prefix (restored) + suffix.
      EXPECT_EQ(stats.consumed + stats.dropped, full.size());
    }

    EXPECT_EQ(alerts, expected)
        << "stop + resume must alert exactly like an uninterrupted run";
  }
}

// A checkpoint interval throttles snapshot frequency but the final drain
// snapshot is always cut, so resume never loses the tail.
TEST(Checkpoint, IntervalThrottlesButFinalSnapshotAlwaysLands) {
  net::Trace trace = make_loopy_trace();
  DaemonConfig config;
  config.use_ring = false;
  config.batch_size = 4;  // many epoch boundaries
  config.checkpoint_dir = temp_dir("interval");
  config.checkpoint_interval = 365LL * 24 * 3600 * net::kSecond;  // ~never

  Daemon d(config, std::make_unique<ReplaySource>(trace, "t", 0), nullptr);
  const DaemonStats stats = d.run();
  EXPECT_EQ(stats.checkpoints_written, 1u)
      << "only the forced final snapshot should land under a huge interval";

  CheckpointState loaded;
  std::string error;
  ASSERT_TRUE(load_latest_checkpoint(config.checkpoint_dir, loaded, &error))
      << error;
  EXPECT_EQ(loaded.source_offset, trace.size());
}

}  // namespace
}  // namespace rloop::daemon
