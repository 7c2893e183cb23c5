// The observability layer's contracts: histogram bucketing and percentile
// extraction, lock-free shard folding under concurrent writers, chrome
// trace JSON schema, the Spans wire codec, and — the load-bearing one —
// dist span forwarding across the fault matrix without disturbing the
// bit-identity guarantee. Tracing and metrics are telemetry: with them
// armed, every result must equal the unobserved run exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "data/serialize.hpp"
#include "dist/coordinator.hpp"
#include "dist/frame.hpp"
#include "finance/contract.hpp"
#include "kernel_modes.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/io_error.hpp"
#include "util/require.hpp"

namespace riskan::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket and percentile contracts
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketAssignmentUsesUpperEdges) {
  MetricsRegistry registry;
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  auto h = registry.histogram("h", bounds);
  // Buckets are (-inf,1], (1,2], (2,4], (4,+inf): an observation equal to
  // an edge lands in the bucket the edge closes.
  h.observe(0.5);
  h.observe(1.0);
  h.observe(1.5);
  h.observe(2.0);
  h.observe(3.0);
  h.observe(4.0);
  h.observe(5.0);

  const auto snap = registry.snapshot();
  const auto* hv = snap.histogram("h");
  ASSERT_NE(hv, nullptr);
  ASSERT_EQ(hv->counts.size(), bounds.size() + 1);
  EXPECT_EQ(hv->counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(hv->counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(hv->counts[2], 2u);  // 3.0, 4.0
  EXPECT_EQ(hv->counts[3], 1u);  // 5.0
  EXPECT_EQ(hv->count, 7u);
  EXPECT_DOUBLE_EQ(hv->sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 5.0);
  EXPECT_DOUBLE_EQ(hv->min, 0.5);
  EXPECT_DOUBLE_EQ(hv->max, 5.0);
}

TEST(ObsHistogram, PercentilesInterpolateWithinBuckets) {
  MetricsRegistry registry;
  // Ten buckets of width 10, each holding exactly the ten integers in its
  // range — in-bucket linear interpolation then yields exact percentiles.
  std::vector<double> bounds;
  for (double b = 10.0; b <= 90.0; b += 10.0) {
    bounds.push_back(b);
  }
  auto h = registry.histogram("u", bounds);
  for (int v = 1; v <= 100; ++v) {
    h.observe(static_cast<double>(v));
  }

  const auto snap = registry.snapshot();
  const auto* hv = snap.histogram("u");
  ASSERT_NE(hv, nullptr);
  EXPECT_DOUBLE_EQ(hv->p50(), 50.0);
  EXPECT_DOUBLE_EQ(hv->p95(), 95.0);
  EXPECT_DOUBLE_EQ(hv->p99(), 99.0);
  EXPECT_DOUBLE_EQ(hv->quantile(0.0), 1.0);   // clamps to observed min
  EXPECT_DOUBLE_EQ(hv->quantile(1.0), 100.0); // clamps to observed max
  EXPECT_DOUBLE_EQ(hv->mean(), 50.5);
  // Monotonicity across the whole range.
  double prev = hv->quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = hv->quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

TEST(ObsHistogram, SingleDistinctValueIsExactAtEveryQuantile) {
  MetricsRegistry registry;
  auto h = registry.histogram("point", std::vector<double>{1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) {
    h.observe(3.0);
  }
  const auto snap = registry.snapshot();
  const auto* hv = snap.histogram("point");
  ASSERT_NE(hv, nullptr);
  // min == max pins the landing bucket's interpolation range to the point.
  EXPECT_DOUBLE_EQ(hv->p50(), 3.0);
  EXPECT_DOUBLE_EQ(hv->p95(), 3.0);
  EXPECT_DOUBLE_EQ(hv->p99(), 3.0);
}

TEST(ObsHistogram, EmptyHistogramReadsAsZero) {
  MetricsRegistry registry;
  (void)registry.histogram("never");
  const auto snap = registry.snapshot();
  const auto* hv = snap.histogram("never");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, 0u);
  EXPECT_DOUBLE_EQ(hv->p99(), 0.0);
  EXPECT_DOUBLE_EQ(hv->mean(), 0.0);
}

TEST(ObsHistogram, BoundsClashRejected) {
  MetricsRegistry registry;
  (void)registry.histogram("h", std::vector<double>{1.0, 2.0});
  // Same name, same bounds: idempotent.
  EXPECT_NO_THROW((void)registry.histogram("h", std::vector<double>{1.0, 2.0}));
  // Same name, different meaning: rejected.
  EXPECT_THROW((void)registry.histogram("h", std::vector<double>{1.0, 3.0}),
               ContractViolation);
  EXPECT_THROW((void)registry.counter("h"), ContractViolation);
}

// ---------------------------------------------------------------------------
// Shard folding under concurrent writers
// ---------------------------------------------------------------------------

TEST(ObsRegistry, ConcurrentCounterAddsFoldExactly) {
  MetricsRegistry registry;
  auto counter = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20'000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.add(1.0);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Integer-valued adds below 2^53 fold without rounding: the shard sums
  // must account for every increment from every thread.
  EXPECT_DOUBLE_EQ(registry.snapshot().counter_value("hits"),
                   static_cast<double>(kThreads) * kAddsPerThread);
}

TEST(ObsRegistry, ConcurrentHistogramObservesFoldExactly) {
  MetricsRegistry registry;
  auto h = registry.histogram("lat", std::vector<double>{1.0, 2.0, 3.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      // Thread t writes a single per-thread value so the expected bucket
      // counts are exact: values 0.5, 1.5, 2.5, 3.5 cycle over buckets.
      const double v = 0.5 + static_cast<double>(t % 4);
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(v);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  const auto snap = registry.snapshot();
  const auto* hv = snap.histogram("lat");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(hv->counts.size(), 4u);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(hv->counts[b], 2u * kPerThread) << "bucket " << b;
  }
  EXPECT_DOUBLE_EQ(hv->min, 0.5);
  EXPECT_DOUBLE_EQ(hv->max, 3.5);
}

TEST(ObsRegistry, SnapshotDeltaSubtractsCountersAndHistograms) {
  MetricsRegistry registry;
  auto c = registry.counter("c");
  auto g = registry.gauge("g");
  auto h = registry.histogram("h", std::vector<double>{1.0});
  c.add(5.0);
  g.set(1.0);
  h.observe(0.5);
  const auto before = registry.snapshot();
  c.add(3.0);
  g.set(42.0);
  h.observe(0.25);
  h.observe(2.0);
  const auto after = registry.snapshot();

  const auto delta = RegistrySnapshot::delta(before, after);
  EXPECT_DOUBLE_EQ(delta.counter_value("c"), 3.0);
  ASSERT_NE(delta.gauge("g"), nullptr);
  EXPECT_DOUBLE_EQ(delta.gauge("g")->value, 42.0);  // last-write-wins
  const auto* hv = delta.histogram("h");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, 2u);
  EXPECT_EQ(hv->counts[0], 1u);
  EXPECT_EQ(hv->counts[1], 1u);
}

TEST(ObsRegistry, DisabledGlobalRegistryDropsWrites) {
  auto& global = MetricsRegistry::global();
  auto c = global.counter("test.disabled_probe");
  const bool was_enabled = enabled();
  set_enabled(false);
  c.add(7.0);
  set_enabled(was_enabled);
  const double value =
      MetricsRegistry::global().snapshot().counter_value("test.disabled_probe");
  EXPECT_DOUBLE_EQ(value, 0.0);
}

// ---------------------------------------------------------------------------
// Trace buffer and chrome trace JSON
// ---------------------------------------------------------------------------

TEST(ObsTrace, RingDropsWhenFullAndCounts) {
  TraceBuffer buffer(4);
  buffer.set_active(true);
  const auto id = buffer.intern("e");
  for (int i = 0; i < 6; ++i) {
    buffer.record(id, 0, 0, static_cast<std::uint64_t>(i), 1);
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.dropped(), 2u);
  EXPECT_EQ(buffer.collect().size(), 4u);
  buffer.reset();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(ObsTrace, IncrementalCollectDrainsWithCursor) {
  TraceBuffer buffer(16);
  buffer.set_active(true);
  const auto id = buffer.intern("e");
  buffer.record(id, 0, 0, 1, 1);
  buffer.record(id, 0, 0, 2, 1);
  std::size_t cursor = 0;
  EXPECT_EQ(buffer.collect(cursor, &cursor).size(), 2u);
  EXPECT_EQ(buffer.collect(cursor, &cursor).size(), 0u);
  buffer.record(id, 0, 0, 3, 1);
  const auto tail = buffer.collect(cursor, &cursor);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].start_ns, 3u);
}

TEST(ObsTrace, ChromeTraceJsonSchemaRoundTrips) {
  std::vector<CollectedSpan> spans;
  spans.push_back({"engine.\"run\"", 0, 0, 1'000, 2'500, false});
  spans.push_back({"dist.lease_grant", 1, 0, 4'000, 0, true});
  spans.push_back({"dist.worker_task", 2, 7, 5'000, 1'000, false});
  const std::string json =
      chrome_trace_json(spans, {{0, "main"}, {3, "prefetch"}});

  // A JSON array with balanced braces (escaping keeps the quote in the
  // span name from breaking the document).
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.find_last_not_of('\n')], ']');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  // Process metadata: one lane per pid, named engine/worker-k.
  EXPECT_NE(json.find(R"("name":"process_name")"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"name":"engine"})"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"name":"worker 0"})"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"name":"worker 1"})"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"name":"prefetch"})"), std::string::npos);

  // The complete event: microseconds with sub-µs precision preserved.
  EXPECT_NE(json.find(R"("name":"engine.\"run\"")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"X","ts":1.000,"dur":2.500)"), std::string::npos);
  // The instant event.
  EXPECT_NE(json.find(R"("ph":"i","s":"t","ts":4.000)"), std::string::npos);
  // Lane → pid mapping carries through.
  EXPECT_NE(json.find(R"("pid":2,"tid":7)"), std::string::npos);
}

TEST(ObsTimer, StopIsIdempotentAndResetSplitsIntervals) {
  Timer timer("test.timer");
  const double first = timer.stop();
  EXPECT_GE(first, 0.0);
  EXPECT_DOUBLE_EQ(timer.stop(), first);   // idempotent
  EXPECT_DOUBLE_EQ(timer.seconds(), first);
  timer.reset();
  EXPECT_GE(timer.stop(), 0.0);
}

TEST(ObsConfigValidation, RejectsBadBoundsAndPaths) {
  ObsConfig bad_order;
  bad_order.histogram_bounds = {1.0, 1.0};
  EXPECT_THROW(validate_obs_config(bad_order), ContractViolation);

  ObsConfig non_finite;
  non_finite.histogram_bounds = {1.0, std::numeric_limits<double>::infinity()};
  EXPECT_THROW(validate_obs_config(non_finite), ContractViolation);

  ObsConfig bad_trace;
  bad_trace.trace_path = "/nonexistent-dir-riskan/trace.json";
  EXPECT_THROW(validate_obs_config(bad_trace), ContractViolation);

  ObsConfig bad_report;
  bad_report.report_path = "/nonexistent-dir-riskan/report.json";
  EXPECT_THROW(validate_obs_config(bad_report), ContractViolation);

  ObsConfig ok;
  ok.collect_report = true;
  ok.trace_path = "/tmp/riskan-obs-validate-trace.json";
  ok.histogram_bounds = {0.001, 0.01, 0.1};
  EXPECT_NO_THROW(validate_obs_config(ok));
}

// ---------------------------------------------------------------------------
// Spans wire codec (FrameType::Spans payload)
// ---------------------------------------------------------------------------

TEST(ObsSpansCodec, RoundTripsSpansAndInstants) {
  std::vector<CollectedSpan> spans;
  spans.push_back({"dist.worker_task", 0, 3, 123, 456, false});
  spans.push_back({"dist.lease_grant", 0, 0, 789, 0, true});
  spans.push_back({"name with spaces \"and quotes\"", 0, 1, 1, 2, false});

  const auto payload = dist::encode_spans_payload(spans);
  const auto decoded = dist::decode_spans_payload(payload);
  ASSERT_EQ(decoded.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(decoded[i].name, spans[i].name);
    EXPECT_EQ(decoded[i].tid, spans[i].tid);
    EXPECT_EQ(decoded[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(decoded[i].dur_ns, spans[i].dur_ns);
    EXPECT_EQ(decoded[i].instant, spans[i].instant);
  }
}

TEST(ObsSpansCodec, TruncatedAndImplausiblePayloadsRejected) {
  std::vector<CollectedSpan> spans;
  spans.push_back({"x", 0, 1, 2, 3, false});
  auto payload = dist::encode_spans_payload(spans);
  payload.resize(payload.size() - 4);  // cut mid-record
  EXPECT_THROW((void)dist::decode_spans_payload(payload), CorruptFrameError);

  // A count far beyond what the payload could hold.
  ByteWriter writer;
  writer.u64(1'000'000);
  EXPECT_THROW((void)dist::decode_spans_payload(writer.buffer()), CorruptFrameError);

  // Trailing garbage after the last record.
  auto padded = dist::encode_spans_payload(spans);
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)dist::decode_spans_payload(padded), CorruptFrameError);
}

// ---------------------------------------------------------------------------
// Dist span forwarding across the fault matrix
// ---------------------------------------------------------------------------

struct ObsDistWorld {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
  std::vector<std::vector<std::byte>> encoded;
  std::vector<dist::BlockSpec> specs;
  std::vector<Money> reference;
};

constexpr TrialId kTrials = 320;
constexpr TrialId kPerBlock = 80;

const ObsDistWorld& dist_world() {
  static const ObsDistWorld w = [] {
    ObsDistWorld built;
    finance::PortfolioGenConfig pg;
    pg.contracts = 2;
    pg.catalog_events = 120;
    pg.elt_rows = 25;
    built.portfolio = finance::generate_portfolio(pg);
    data::YeltGenConfig yg;
    yg.trials = kTrials;
    built.yelt = data::generate_yelt(120, yg);

    for (TrialId lo = 0; lo < kTrials; lo += kPerBlock) {
      const TrialId hi = std::min<TrialId>(kTrials, lo + kPerBlock);
      ByteWriter writer;
      data::encode_yelt_slice(built.yelt, lo, hi, writer);
      built.specs.push_back({built.encoded.size(), lo, hi - lo});
      built.encoded.push_back(writer.buffer());
    }

    core::EngineConfig engine;
    engine.backend = core::Backend::Sequential;
    engine.compute_oep = false;
    engine.keep_contract_ylts = false;
    const auto result =
        core::run_aggregate_analysis(built.portfolio, built.yelt, engine);
    const auto losses = result.portfolio_ylt.losses();
    built.reference.assign(losses.begin(), losses.end());
    return built;
  }();
  return w;
}

std::size_t count_spans(const std::vector<CollectedSpan>& spans,
                        std::string_view name, bool worker_lane) {
  std::size_t n = 0;
  for (const auto& s : spans) {
    if (s.name == name && (s.lane >= 1) == worker_lane) {
      ++n;
    }
  }
  return n;
}

/// Runs the dist matrix entry with global tracing armed, asserts the
/// result is still bit-identical, and returns the collected trace.
std::vector<CollectedSpan> run_traced(dist::DistConfig config) {
  const auto& w = dist_world();
  start_global_trace();
  core::EngineConfig engine;
  const auto result = dist::run_distributed_aggregate(w.portfolio, engine,
                                                      w.specs, [](const auto& spec) {
                                                        return dist_world().encoded[spec.id];
                                                      },
                                                      config);
  auto spans = TraceBuffer::global().collect();
  TraceBuffer::global().set_active(false);
  TraceBuffer::global().reset();

  EXPECT_EQ(result.portfolio_ylt.trials(), w.reference.size());
  for (TrialId t = 0; t < result.portfolio_ylt.trials(); ++t) {
    EXPECT_EQ(result.portfolio_ylt[t], w.reference[t]) << "trial " << t;
  }
  return spans;
}

TEST(ObsDistForwarding, WorkerSpansArriveOnWorkerLanes) {
  dist::DistConfig config;
  config.workers = 4;
  const auto spans = run_traced(config);

  // Every block executed in a worker shows up as a forwarded span on a
  // worker lane (never lane 0 — lanes are re-stamped by the coordinator).
  EXPECT_GE(count_spans(spans, "dist.worker_task", /*worker_lane=*/true),
            dist_world().specs.size());
  EXPECT_EQ(count_spans(spans, "dist.worker_task", /*worker_lane=*/false), 0u);
  // Scheduling instants ride the coordinator side, attributed to the
  // granted worker's lane.
  EXPECT_GE(count_spans(spans, "dist.lease_grant", /*worker_lane=*/true),
            dist_world().specs.size());
  // Multiple distinct worker lanes appear.
  std::vector<std::uint32_t> lanes;
  for (const auto& s : spans) {
    if (s.lane >= 1 && std::find(lanes.begin(), lanes.end(), s.lane) == lanes.end()) {
      lanes.push_back(s.lane);
    }
  }
  EXPECT_GE(lanes.size(), 2u);
}

TEST(ObsDistForwarding, CrashRecoveryKeepsBitIdentityWithTracingOn) {
  dist::DistConfig config;
  config.workers = 2;
  config.faults.crash = {0, 1};
  const auto spans = run_traced(config);
  EXPECT_GE(count_spans(spans, "dist.block_requeued", /*worker_lane=*/false), 1u);
}

TEST(ObsDistForwarding, CorruptReplyKeepsBitIdentityWithTracingOn) {
  dist::DistConfig config;
  config.workers = 2;
  config.faults.corrupt = {0, 1};
  const auto spans = run_traced(config);
  EXPECT_GE(count_spans(spans, "dist.worker_task", /*worker_lane=*/true), 1u);
}

TEST(ObsDistForwarding, TornReplyKeepsBitIdentityWithTracingOn) {
  dist::DistConfig config;
  config.workers = 2;
  config.faults.torn = {0, 1};
  (void)run_traced(config);
}

TEST(ObsDistForwarding, StallEmitsLeaseEventsAndKeepsBitIdentity) {
  dist::DistConfig config;
  config.workers = 2;
  config.lease_seconds = 0.25;
  config.faults.stall = {0, 1};
  config.faults.stall_seconds = 0.6;
  const auto spans = run_traced(config);
  EXPECT_GE(count_spans(spans, "dist.lease_expired", /*worker_lane=*/true), 1u);
  EXPECT_GE(count_spans(spans, "dist.block_requeued", /*worker_lane=*/false), 1u);
}

// ---------------------------------------------------------------------------
// End-of-run reports through the engine entry point
// ---------------------------------------------------------------------------

TEST(ObsReportFlow, EngineRunProducesMetricsDeltaReport) {
  const auto& w = dist_world();
  core::EngineConfig engine;
  engine.backend = core::Backend::Sequential;
  engine.obs.collect_report = true;
  const auto result = core::run_aggregate_analysis(w.portfolio, w.yelt, engine);
  ASSERT_NE(result.obs_report, nullptr);
  EXPECT_GE(result.obs_report->seconds, 0.0);
  // The run itself shows up in the delta: exactly this run's engine.runs.
  EXPECT_DOUBLE_EQ(result.obs_report->metrics.counter_value("engine.runs"), 1.0);
  const std::string json = result.obs_report->to_json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.runs\""), std::string::npos);

  // No report requested → no report allocated.
  core::EngineConfig plain;
  plain.backend = core::Backend::Sequential;
  const auto unobserved = core::run_aggregate_analysis(w.portfolio, w.yelt, plain);
  EXPECT_EQ(unobserved.obs_report, nullptr);

  // And observability must not perturb the numbers.
  ASSERT_EQ(result.portfolio_ylt.trials(), unobserved.portfolio_ylt.trials());
  for (TrialId t = 0; t < result.portfolio_ylt.trials(); ++t) {
    ASSERT_EQ(result.portfolio_ylt[t], unobserved.portfolio_ylt[t]);
  }
}

TEST(ObsReportFlow, TracePathExportsLoadableChromeTrace) {
  const auto& w = dist_world();
  const std::string path = "/tmp/riskan-obs-engine-trace.json";
  core::EngineConfig engine;
  engine.backend = core::Backend::Sequential;
  engine.obs.trace_path = path;
  (void)core::run_aggregate_analysis(w.portfolio, w.yelt, engine);
  // The scope turned tracing off again after exporting.
  EXPECT_FALSE(TraceBuffer::global().active());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find("engine.block"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTrace, AtexitExportKeepsThreadNamesIntact) {
  // A traced run registers its RISKAN_TRACE export with atexit when it
  // first touches the global buffer; a prefetch thread names itself
  // later. The export at exit must still see that name. The child is a
  // fresh exec of this binary (threadsafe death-test style), so the
  // buffer and the thread-name table are built in that order there.
  (void)TraceBuffer::global();  // this process never exports to `path`
  const std::string path = ::testing::TempDir() + "riskan-trace-thread-names.json";
  test_support::ScopedEnv trace_env("RISKAN_TRACE", path.c_str());
  std::remove(path.c_str());
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        static const std::uint32_t block = span_id("prefetch.block");
        std::thread([] {
          set_trace_thread_name("prefetch");
          const Span span(block);
        }).join();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "the child wrote no trace to " << path;
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  ASSERT_FALSE(json.empty());
  for (const char c : json) {
    ASSERT_TRUE(c == '\n' || (c >= 0x20 && c < 0x7f))
        << "non-printable byte " << static_cast<int>(static_cast<unsigned char>(c));
  }
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.find_last_not_of('\n')], ']');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  // Exactly one thread_name record, labelled and keyed by a small dense
  // trace tid (not a pointer-sized one read out of freed memory).
  const std::string head = R"({"name":"thread_name","ph":"M","pid":0,"tid":)";
  const std::size_t at = json.find(head);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_EQ(json.find(head, at + 1), std::string::npos) << json;
  const std::size_t tid_end = json.find(',', at + head.size());
  ASSERT_NE(tid_end, std::string::npos);
  const std::string tid = json.substr(at + head.size(), tid_end - at - head.size());
  ASSERT_FALSE(tid.empty());
  EXPECT_LE(tid.size(), 4u) << "tid " << tid;
  EXPECT_EQ(tid.find_first_not_of("0123456789"), std::string::npos) << "tid " << tid;
  const std::string label = R"(,"args":{"name":"prefetch"}})";
  EXPECT_EQ(json.compare(tid_end, label.size(), label), 0) << json;
  // The prefetch thread's span is attributed to that same tid.
  EXPECT_NE(json.find(R"("name":"prefetch.block","pid":0,"tid":)" + tid + ","),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace riskan::obs
