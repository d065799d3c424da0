// Flight recorder edge cases (obs/flight.h): ring wrap-around accounting,
// dumping during active recording from other threads, truncated-dump decode
// (typed WireError, never UB), and the dump-on-failure path end to end — a
// forced wire rejection must yield a dump that decodes to valid Chrome
// trace JSON containing the rejection event.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/adversary.h"
#include "net/transport.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/cli.h"
#include "util/value.h"

namespace ftss {
namespace {

// Every test shares the process-wide recorder, so each starts from a known
// state and restores the defaults on the way out.
class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder& r = FlightRecorder::global();
    r.set_enabled(true);
    r.set_ring_capacity(4096);
    r.reset();
  }
  void TearDown() override {
    FlightRecorder& r = FlightRecorder::global();
    r.set_enabled(true);
    r.set_ring_capacity(4096);
    r.reset();
  }
};

std::vector<std::uint8_t> read_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string s = buffer.str();
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST_F(FlightTest, RingWrapAroundKeepsNewestEventsAndCountsDrops) {
  FlightRecorder& r = FlightRecorder::global();
  r.set_ring_capacity(8);
  r.reset();

  for (std::int64_t i = 0; i < 20; ++i) {
    FlightRecorder::instant(FlightCat::kMark, i, 0);
  }
  FlightDump d = r.dump();
  ASSERT_EQ(d.threads.size(), 1u);
  EXPECT_EQ(d.threads[0].events.size(), 8u);
  EXPECT_EQ(d.threads[0].events_dropped, 12);
  // The survivors are the newest 8, still in recording order.
  for (std::size_t i = 0; i < d.threads[0].events.size(); ++i) {
    EXPECT_EQ(d.threads[0].events[i].a, static_cast<std::int64_t>(12 + i));
    if (i > 0) {
      EXPECT_GE(d.threads[0].events[i].t_ns, d.threads[0].events[i - 1].t_ns);
    }
  }

  // The drop counter is monotone across further recording.
  for (std::int64_t i = 20; i < 25; ++i) {
    FlightRecorder::instant(FlightCat::kMark, i, 0);
  }
  const FlightDump d2 = r.dump();
  ASSERT_EQ(d2.threads.size(), 1u);
  EXPECT_EQ(d2.threads[0].events_dropped, 17);
  EXPECT_EQ(d2.threads[0].events.back().a, 24);
}

TEST_F(FlightTest, DisabledRecorderEmitsNothing) {
  FlightRecorder& r = FlightRecorder::global();
  r.set_enabled(false);
  FlightRecorder::instant(FlightCat::kMark, 1, 2);
  FlightRecorder::span(FlightCat::kTrial, 0, FlightRecorder::now_ns());
  EXPECT_TRUE(r.dump().threads.empty());
  r.set_enabled(true);
  FlightRecorder::instant(FlightCat::kMark, 3, 4);
  EXPECT_EQ(r.dump().threads.size(), 1u);
}

// Threads record while the main thread dumps concurrently: every dump must
// be coherent (encode/decode round-trips) and the final dump must account
// for every event either as kept or dropped.  Run under TSan to pin the
// synchronization claim in the header comment.
TEST_F(FlightTest, DumpDuringActiveRecordingSeesEveryEvent) {
  FlightRecorder& r = FlightRecorder::global();
  r.set_ring_capacity(64);
  r.reset();

  constexpr int kThreads = 4;
  constexpr std::int64_t kEvents = 1000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::int64_t i = 0; i < kEvents; ++i) {
        FlightRecorder::instant(FlightCat::kMark, t, i);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int pass = 0; pass < 50; ++pass) {
    const FlightDump mid = r.dump();  // racing the workers on purpose
    std::vector<std::uint8_t> bytes;
    encode_flight_dump(mid, bytes);
    const FlightDecodeResult decoded =
        decode_flight_dump(bytes.data(), bytes.size());
    ASSERT_EQ(decoded.error, wire::WireError::kOk);
    ASSERT_EQ(decoded.dump.threads.size(), mid.threads.size());
  }
  for (std::thread& w : workers) w.join();

  const FlightDump final_dump = r.dump();
  ASSERT_EQ(final_dump.threads.size(), static_cast<std::size_t>(kThreads));
  std::int64_t seen_tids = 0;
  for (const FlightThreadDump& t : final_dump.threads) {
    EXPECT_EQ(static_cast<std::int64_t>(t.events.size()) + t.events_dropped,
              kEvents);
    seen_tids |= std::int64_t{1} << t.tid;
  }
  EXPECT_EQ(seen_tids, (std::int64_t{1} << kThreads) - 1);  // distinct tids
}

TEST_F(FlightTest, EncodeDecodeRoundTripsExactly) {
  FlightRecorder::instant(FlightCat::kEncode, 123, 456);
  FlightRecorder::span(FlightCat::kRound, 7, FlightRecorder::now_ns());
  const FlightDump d = FlightRecorder::global().dump();

  std::vector<std::uint8_t> bytes;
  encode_flight_dump(d, bytes);
  const FlightDecodeResult back = decode_flight_dump(bytes.data(),
                                                     bytes.size());
  ASSERT_EQ(back.error, wire::WireError::kOk);
  EXPECT_EQ(flight_dump_to_value(back.dump), flight_dump_to_value(d));
}

TEST_F(FlightTest, EveryTruncationDecodesToATypedError) {
  for (std::int64_t i = 0; i < 5; ++i) {
    FlightRecorder::instant(FlightCat::kMark, i, -i);
  }
  std::vector<std::uint8_t> bytes;
  encode_flight_dump(FlightRecorder::global().dump(), bytes);
  ASSERT_GT(bytes.size(), 5u);

  // Every strict prefix — header-only prefixes included — must come back
  // as a typed error, never garbage and never a crash.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const FlightDecodeResult r = decode_flight_dump(bytes.data(), len);
    EXPECT_NE(r.error, wire::WireError::kOk) << "prefix length " << len;
    EXPECT_TRUE(r.dump.threads.empty()) << "prefix length " << len;
  }

  // Trailing garbage, bad magic and bad version each get their own error.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0x00);
  EXPECT_EQ(decode_flight_dump(padded.data(), padded.size()).error,
            wire::WireError::kTrailingBytes);
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(decode_flight_dump(bad_magic.data(), bad_magic.size()).error,
            wire::WireError::kBadMagic);
  std::vector<std::uint8_t> bad_version = bytes;
  bad_version[4] = 0x7f;
  EXPECT_EQ(decode_flight_dump(bad_version.data(), bad_version.size()).error,
            wire::WireError::kBadVersion);
}

TEST_F(FlightTest, JsonlLinesAllParse) {
  FlightRecorder::instant(FlightCat::kOracle, 2, 99);
  FlightRecorder::span(FlightCat::kTrial, 42, FlightRecorder::now_ns());
  const std::string jsonl =
      flight_dump_to_jsonl(FlightRecorder::global().dump());
  std::istringstream lines(jsonl);
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(Value::parse(line).has_value()) << line;
    ++parsed;
  }
  EXPECT_GE(parsed, 3);  // meta line + thread line + >= 1 event
}

// Regression for the FTSS_FLIGHT=0 dump-on-failure path: a disabled
// recorder yields an EMPTY dump, and that empty dump must still be a valid
// "FTFR" artifact — it encodes, decodes with the same decoder ftss_trace
// --flight uses, and renders to JSONL whose only line is the meta object
// (zero threads, zero rings_dropped).  A dump written with recording off
// must never be a 0-byte or truncated file that the decode tooling then
// reports as corrupt.
TEST_F(FlightTest, DisabledRecorderDumpEncodesToValidEmptyArtifact) {
  FlightRecorder& r = FlightRecorder::global();
  r.set_enabled(false);
  r.reset();
  FlightRecorder::instant(FlightCat::kMark, 1, 2);  // must not be recorded

  const FlightDump d = r.dump();
  EXPECT_TRUE(d.threads.empty());

  std::vector<std::uint8_t> bytes;
  encode_flight_dump(d, bytes);
  ASSERT_FALSE(bytes.empty());  // a real header, not an empty file
  const FlightDecodeResult back =
      decode_flight_dump(bytes.data(), bytes.size());
  ASSERT_EQ(back.error, wire::WireError::kOk);
  EXPECT_TRUE(back.dump.threads.empty());

  // JSONL: exactly the meta line, parseable, schema-tagged, zero threads.
  const std::string jsonl = flight_dump_to_jsonl(back.dump);
  std::istringstream lines(jsonl);
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    const auto v = Value::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    if (parsed == 0) {
      EXPECT_EQ(v->at("schema").as_string(), "ftss-flight-jsonl-v1");
      EXPECT_EQ(v->at("threads").as_int(), 0);
      EXPECT_EQ(v->at("rings_dropped").as_int(), 0);
    }
    ++parsed;
  }
  EXPECT_EQ(parsed, 1);

  // Chrome rendering of the empty dump is a valid trace with no events.
  const auto trace = Value::parse(flight_dump_to_chrome(back.dump));
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->at("traceEvents").size(), 0u);
}

// Same property end to end through the CLI failure path: with recording
// disabled (what FTSS_FLIGHT=0 arranges in main), dump_failure_artifacts
// must still write a decodable .flight file rather than skipping or
// corrupting the artifact — `ftss_trace --flight` on it exits 0 with empty
// JSONL instead of "corrupt dump".
TEST_F(FlightTest, DumpFailureArtifactsWithRecorderDisabledIsDecodable) {
  FlightRecorder& r = FlightRecorder::global();
  r.set_enabled(false);
  r.reset();

  const std::string prefix = ::testing::TempDir() + "flight_disabled_dump";
  const std::string flight_path = dump_failure_artifacts(prefix, nullptr);
  ASSERT_EQ(flight_path, prefix + ".flight");

  const std::vector<std::uint8_t> bytes = read_binary(flight_path);
  ASSERT_FALSE(bytes.empty());
  const FlightDecodeResult decoded =
      decode_flight_dump(bytes.data(), bytes.size());
  ASSERT_EQ(decoded.error, wire::WireError::kOk);
  EXPECT_TRUE(decoded.dump.threads.empty());
}

// A write that never reaches the file is a failure, also when the stream
// opened and only the flush at close fails: /dev/full takes no bytes.
TEST_F(FlightTest, WritesToAFullDeviceReportFailure) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  FlightRecorder::instant(FlightCat::kMark, 1, 2);
  EXPECT_FALSE(FlightRecorder::global().dump_to_file("/dev/full"));
  EXPECT_FALSE(write_file("flight_test", "/dev/full", "text\n"));
}

// The metrics sidecar is part of the artifacts: when it cannot be written
// (here its path is a directory), dump_failure_artifacts reports failure.
TEST_F(FlightTest, DumpFailureArtifactsReportsAnUnwritableSidecar) {
  const std::string prefix = ::testing::TempDir() + "flight_blocked_sidecar";
  std::filesystem::create_directories(prefix + ".metrics.json");
  const MetricsSnapshot metrics;
  EXPECT_EQ(dump_failure_artifacts(prefix, &metrics), "");
  EXPECT_EQ(dump_failure_artifacts(prefix, nullptr), prefix + ".flight");
}

// The acceptance path: a deliberately corrupted transport frame forces a
// typed rejection; the failure artifacts must include a flight dump that
// decodes (same decoder ftss_trace --flight uses) into a Chrome trace with
// the kReject event on tape, plus a metrics snapshot with the latency
// histograms.
TEST_F(FlightTest, ForcedRejectionDumpDecodesToChromeTrace) {
  TrialPlan plan;
  plan.trial_seed = 77;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = 4;
  plan.rounds = 10;
  TransportOptions options;
  options.flip_bit_index = 3;  // mangle the 4th scheduled delivery
  options.flip_bit = 11;
  const TransportResult result = run_transport_trial(plan, options);
  ASSERT_TRUE(result.supported) << result.unsupported_reason;
  ASSERT_FALSE(result.rejected_frames.empty());

  const std::string prefix = ::testing::TempDir() + "flight_forced_reject";
  const std::string flight_path =
      dump_failure_artifacts(prefix, &result.timing);
  ASSERT_EQ(flight_path, prefix + ".flight");

  const std::vector<std::uint8_t> bytes = read_binary(flight_path);
  const FlightDecodeResult decoded =
      decode_flight_dump(bytes.data(), bytes.size());
  ASSERT_EQ(decoded.error, wire::WireError::kOk);
  bool saw_reject = false;
  for (const FlightThreadDump& t : decoded.dump.threads) {
    for (const FlightEvent& e : t.events) {
      saw_reject |= e.cat == static_cast<std::uint16_t>(FlightCat::kReject);
    }
  }
  EXPECT_TRUE(saw_reject);

  const std::string chrome = flight_dump_to_chrome(decoded.dump);
  const auto trace = Value::parse(chrome);
  ASSERT_TRUE(trace.has_value());
  ASSERT_TRUE(trace->contains("traceEvents"));
  EXPECT_GT(trace->at("traceEvents").size(), 0u);

  // The sidecar metrics snapshot parses and carries the timing histograms.
  std::ifstream metrics_in(prefix + ".metrics.json");
  ASSERT_TRUE(metrics_in.good());
  std::stringstream metrics_buf;
  metrics_buf << metrics_in.rdbuf();
  const auto metrics_doc = Value::parse(metrics_buf.str());
  ASSERT_TRUE(metrics_doc.has_value());
  EXPECT_TRUE(
      metrics_doc->at("timing").at("histograms").contains("hub_round_ns"));
}

// The profiler's carve-out, observed from the transport side: timing
// histograms are populated but contribute nothing to stable fingerprints.
TEST_F(FlightTest, TransportTimingIsPopulatedAndFingerprintNeutral) {
  TrialPlan plan;
  plan.trial_seed = 5;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = 4;
  plan.rounds = 12;
  const TransportResult result = run_transport_trial(plan);
  ASSERT_TRUE(result.supported) << result.unsupported_reason;

  const auto& hists = result.timing.histograms;
  ASSERT_TRUE(hists.count("hub_round_ns"));
  EXPECT_EQ(hists.at("hub_round_ns").count, 12);
  ASSERT_TRUE(hists.count("wire_encode_ns"));
  EXPECT_GT(hists.at("wire_encode_ns").count, 0);
  ASSERT_TRUE(hists.count("wire_decode_ns"));
  EXPECT_GT(hists.at("wire_decode_ns").count, 0);
  ASSERT_TRUE(hists.count("transport_trial_ns"));
  EXPECT_EQ(hists.at("transport_trial_ns").count, 1);
  for (const auto& [name, h] : hists) {
    EXPECT_TRUE(h.wall_clock) << name;
    EXPECT_GE(h.max, h.min) << name;
  }
  // All-wall-clock snapshot == empty snapshot as far as fingerprints go.
  EXPECT_EQ(result.timing.fingerprint(), MetricsSnapshot{}.fingerprint());
}

}  // namespace
}  // namespace ftss
