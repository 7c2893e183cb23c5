// perfbench — end-to-end benchmark of the riskan pipeline.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--reference <file>]
//   perfbench --workload <name> --seed <n> --record-reference <keys>
//
// One client thread drives the library's public entry points in a closed
// loop (the next operation starts when the previous one returns) with a
// default core::EngineConfig. Inputs are generated from --seed. Every
// operation's outputs are digested and checked: against the digests in
// --reference when it holds this (workload, seed), otherwise against a
// Backend::Sequential in-memory run made after the timed loop. The last
// stdout line is one JSON object {correct, attempted, failed, metrics}.
//
// --trace 0 reports the end-to-end metrics. --trace 1 records one span per
// public call from this file (nothing inside the library is instrumented),
// runs the ablations that attribute time to layers, writes the spans out at
// exit and reports the per-layer metrics. README.md lists every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/metrics.hpp"
#include "core/pricer.hpp"
#include "core/simd.hpp"
#include "data/chunked_file.hpp"
#include "data/resolved_yelt.hpp"
#include "data/serialize.hpp"
#include "data/trial_source.hpp"
#include "dfa/dfa_engine.hpp"
#include "finance/contract.hpp"
#include "parallel/thread_pool.hpp"

using namespace riskan;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile (the type-7 rule of core::value_at_risk).
double quantile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double h = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------------
// Spans: one per public call, recorded from this file on the client thread.

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;     ///< index into Tracer::spans, -1 for a root
  int op = -1;         ///< operation the span belongs to, -1 outside any
};

struct Tracer {
  bool enabled = false;
  int op = -1;
  int current = -1;
  Clock::time_point epoch = Clock::now();
  std::vector<Span> spans;
};

Tracer g_tracer;

class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (!g_tracer.enabled) {
      return;
    }
    index_ = static_cast<int>(g_tracer.spans.size());
    g_tracer.spans.push_back(
        {name, seconds_since(g_tracer.epoch), 0.0, g_tracer.current, g_tracer.op});
    g_tracer.current = index_;
  }
  ~SpanScope() {
    if (index_ < 0) {
      return;
    }
    Span& span = g_tracer.spans[static_cast<std::size_t>(index_)];
    span.end = seconds_since(g_tracer.epoch);
    g_tracer.current = span.parent;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int index_ = -1;
};

template <class F>
auto traced(const char* name, F&& call) {
  SpanScope scope(name);
  return call();
}

/// Forwards to a TrialSource and records a span around every next() — the
/// consumer-side wait on the data plane, seen from outside the library.
class TimedSource final : public data::TrialSource {
 public:
  explicit TimedSource(data::TrialSource& inner) : inner_(inner) {}
  TrialId trials() const override { return inner_.trials(); }
  std::size_t block_count() const override { return inner_.block_count(); }
  bool next(data::TrialBlock& block) override {
    SpanScope scope("data.next");
    return inner_.next(block);
  }
  void reset() override { inner_.reset(); }
  bool ephemeral_blocks() const noexcept override { return inner_.ephemeral_blocks(); }

 private:
  data::TrialSource& inner_;
};

// ---------------------------------------------------------------------------
// Output digests: every bit of every output an operation returns.

class Digest {
 public:
  void add(std::uint64_t word) {
    h_ ^= word;
    h_ *= 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  void add(double value) {
    std::uint64_t word = 0;
    std::memcpy(&word, &value, sizeof word);
    add(word);
  }
  void add(std::span<const Money> values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const Money v : values) {
      add(v);
    }
  }
  void add(const core::RiskSummary& s) {
    for (const Money v : {s.mean_annual_loss, s.stdev_annual_loss, s.var_95, s.var_99,
                          s.var_99_6, s.tvar_99, s.pml_100, s.pml_250, s.max_loss}) {
      add(v);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Workloads.

/// What one operation returned, besides its outputs' digest.
struct OpOutcome {
  std::size_t op = 0;
  double seconds = 0.0;  ///< wall-clock of the library calls only
  std::uint64_t digest = 0;
  std::uint64_t occurrences = 0;      ///< EngineResult::occurrences_processed
  std::uint64_t gathered_bytes = 0;   ///< computed: ELT lookups x bytes gathered per lookup
  std::uint64_t bytes_read = 0;       ///< ChunkedFileSourceStats::bytes_read (streamed)
  double produce_seconds = 0.0;       ///< ChunkedFileSourceStats::produce_seconds (streamed)
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates (or regenerates) the shared inputs and constructs the
  /// long-lived library objects. Repeated to measure setup_s.
  virtual void setup() = 0;
  /// Runs operation k, timing the library calls; spans when tracing.
  virtual OpOutcome run_op(std::size_t k) = 0;
  /// Operations with the same key have the same reference outputs.
  virtual std::size_t reference_key(std::size_t k) const = 0;
  /// Operations after which the inputs repeat; 0 when they never do.
  virtual std::size_t cycle() const { return 0; }
  /// Digest of a Backend::Sequential in-memory run of the key's inputs.
  /// Thread-safe: reads the shared inputs only.
  virtual std::uint64_t oracle(std::size_t key) const = 0;
  /// Traced run only: ablation and probe operations, each under a root
  /// span named after it. Ops that stream the YELT from a chunked file
  /// append their outcomes to `streamed`.
  virtual void ablations(int& next_op, std::vector<OpOutcome>& streamed) = 0;
  /// Name of the span around the operation's main library call.
  virtual const char* main_call() const = 0;
};

/// Runs `body` as one traced operation under a root span `name`; returns
/// the body's result.
template <class F>
auto traced_op(int& next_op, const char* name, F&& body) {
  g_tracer.op = next_op++;
  SpanScope root(name);
  return body();
}

core::EngineResult traced_engine(const finance::Portfolio& book, data::TrialSource& source,
                                 const core::EngineConfig& config) {
  return traced("core.run_aggregate_analysis", [&] {
    TimedSource timed(source);
    return core::run_aggregate_analysis(book, timed, config);
  });
}

std::uint64_t gathered_bytes(const core::EngineResult& r, const core::EngineConfig& config) {
  // A lookup gathers the mean loss; sampling also reads sigma and exposure.
  return r.elt_lookups * sizeof(Money) * (config.secondary_uncertainty ? 3 : 1);
}

/// The traced run's ablations of a workload's config: the main call as is,
/// then with one stage switched off, then on one thread. Each round runs
/// them back to back, so shares compare calls made at the same time.
std::vector<std::pair<const char*, core::EngineConfig>> ablation_variants(
    const core::EngineConfig& base) {
  core::EngineConfig secondary_off = base;
  secondary_off.secondary_uncertainty = false;
  core::EngineConfig oep_off = base;
  oep_off.compute_oep = false;
  core::EngineConfig sequential = base;
  sequential.backend = core::Backend::Sequential;
  return {{"ablate.default", base},
          {"ablate.secondary_off", secondary_off},
          {"ablate.oep_off", oep_off},
          {"ablate.sequential", sequential}};
}

/// What a roll-up reports after the engine: the AEP summary and OEP curve.
struct RollupMetrics {
  core::RiskSummary summary;
  std::vector<core::EpPoint> oep;
};

RollupMetrics rollup_metrics(const core::EngineResult& r) {
  static const std::vector<double> rps = core::standard_return_periods();
  RollupMetrics m;
  m.summary = traced("core.summarise", [&] { return core::summarise(r.portfolio_ylt); });
  m.oep = traced("core.exceedance_curve",
                 [&] { return core::exceedance_curve(r.portfolio_occurrence_ylt, rps); });
  return m;
}

Digest rollup_digest(const core::EngineResult& r, const RollupMetrics& m) {
  Digest h;
  h.add(r.portfolio_ylt.losses());
  h.add(r.portfolio_occurrence_ylt.losses());
  h.add(r.reinstatement_premium.losses());
  for (const auto& ylt : r.contract_ylts) {
    h.add(ylt.losses());
  }
  h.add(m.summary);
  for (const auto& point : m.oep) {
    h.add(point.loss);
  }
  return h;
}

/// Stage 2 -> 3 as a risk manager runs it: roll a fresh book up over the
/// shared YELT, summarise it, and feed the portfolio YLT into DFA. The
/// traced run also streams the YELT back from a chunked file, the
/// out-of-core data plane.
class BookRollup final : public Workload {
 public:
  static constexpr std::size_t kContracts = 16;
  static constexpr int kLayers = 4;
  static constexpr EventId kCatalog = 10'000;
  static constexpr std::size_t kEltRows = 2'000;
  static constexpr TrialId kTrials = 100'000;
  static constexpr int kAblationRounds = 3;
  // Few blocks: every block costs one fork-join pass per (contract, layer).
  static constexpr TrialId kChunkBlocks = 4;

  BookRollup(std::uint64_t seed, std::string chunk_path)
      : seed_(seed), chunk_path_(std::move(chunk_path)) {}
  ~BookRollup() override {
    std::error_code ignored;
    std::filesystem::remove(chunk_path_, ignored);
  }
  BookRollup(const BookRollup&) = delete;
  BookRollup& operator=(const BookRollup&) = delete;

  void setup() override {
    data::YeltGenConfig yg;
    yg.trials = kTrials;
    yg.seed = mix_seed(seed_, 1);
    yelt_ = traced("setup.generate_yelt", [&] { return data::generate_yelt(kCatalog, yg); });
    dfa_ = make_dfa();
  }

  OpOutcome run_op(std::size_t k) override {
    const auto b = book(k);
    OpOutcome out;
    const auto t0 = Clock::now();
    core::EngineResult r;
    if (g_tracer.enabled) {
      data::InMemorySource source(yelt_);
      r = traced_engine(b, source, config_);
    } else {
      r = core::run_aggregate_analysis(b, yelt_, config_);
    }
    const auto m = rollup_metrics(r);
    const auto d = traced("dfa.run", [&] { return dfa_->run(r.portfolio_ylt); });
    out.seconds = seconds_since(t0);
    out.digest = digest(r, m, d);
    out.occurrences = r.occurrences_processed;
    out.gathered_bytes = gathered_bytes(r, config_);
    return out;
  }

  std::size_t reference_key(std::size_t k) const override { return k; }

  std::uint64_t oracle(std::size_t key) const override {
    core::EngineConfig sequential;
    sequential.backend = core::Backend::Sequential;
    const auto r = core::run_aggregate_analysis(book(key), yelt_, sequential);
    return digest(r, rollup_metrics(r), make_dfa()->run(r.portfolio_ylt));
  }

  void ablations(int& next_op, std::vector<OpOutcome>& streamed) override {
    traced("ablate.stage_chunked_file", [&] {
      data::ChunkedFileWriter writer(chunk_path_);
      const TrialId per_block = (kTrials + kChunkBlocks - 1) / kChunkBlocks;
      ByteWriter bytes;
      for (TrialId lo = 0; lo < kTrials; lo += per_block) {
        bytes.clear();
        data::encode_yelt_slice(yelt_, lo, std::min(kTrials, lo + per_block), bytes);
        writer.append(bytes.buffer());
      }
      writer.finish();
      return 0;
    });
    // Every ablation op rolls up a book no other op has seen, so each
    // resolves cold, like the timed ops (a streamed run always does).
    std::size_t key = kAblationKeys;
    for (int round = 0; round < kAblationRounds; ++round) {
      for (const auto& [name, config] : ablation_variants(config_)) {
        const auto b = book(key++);
        traced_op(next_op, name, [&] {
          data::InMemorySource source(yelt_);
          return traced_engine(b, source, config);
        });
      }
      const auto streamed_book = book(key++);
      traced_op(next_op, "ablate.streamed", [&] {
        data::ChunkedFileSource source(chunk_path_);
        traced_engine(streamed_book, source, config_);
        OpOutcome out;
        out.bytes_read = source.stats().bytes_read;
        out.produce_seconds = source.stats().produce_seconds;
        streamed.push_back(out);
        return 0;
      });
      const auto b = book(key++);
      traced_op(next_op, "probe.resolve", [&] {
        for (const auto& contract : b.contracts()) {
          traced("data.resolve",
                 [&] { return data::ResolvedYelt::build(contract.elt(), yelt_); });
        }
        return 0;
      });
    }
  }

  const char* main_call() const override { return "core.run_aggregate_analysis"; }

 private:
  static constexpr std::size_t kAblationKeys = 1'000'000;

  finance::Portfolio book(std::size_t key) const {
    finance::PortfolioGenConfig pg;
    pg.contracts = kContracts;
    pg.catalog_events = kCatalog;
    pg.elt_rows = kEltRows;
    pg.layers_per_contract = kLayers;
    pg.seed = mix_seed(seed_, 1000 + key);
    return finance::generate_portfolio(pg);
  }

  std::unique_ptr<dfa::DfaEngine> make_dfa() const {
    dfa::DfaConfig config;
    config.seed = mix_seed(seed_, 2);
    return std::make_unique<dfa::DfaEngine>(dfa::standard_risk_sources(mix_seed(seed_, 3)),
                                             config);
  }

  static std::uint64_t digest(const core::EngineResult& r, const RollupMetrics& m,
                              const dfa::DfaResult& d) {
    Digest h = rollup_digest(r, m);
    h.add(d.enterprise_ylt.losses());
    h.add(d.enterprise_summary);
    h.add(d.economic_capital);
    h.add(d.diversification_benefit);
    return h.value();
  }

  std::uint64_t seed_;
  std::string chunk_path_;
  core::EngineConfig config_;
  data::YearEventLossTable yelt_;
  std::unique_ptr<dfa::DfaEngine> dfa_;
};

/// The paper's real-time pricing: back-to-back quotes of a few contracts
/// under varying layer terms against one shared YELT.
class QuoteStream final : public Workload {
 public:
  static constexpr std::size_t kContracts = 4;
  static constexpr std::size_t kTermVariants = 4;
  static constexpr EventId kCatalog = 100'000;
  static constexpr std::size_t kEltRows = 10'000;
  static constexpr TrialId kTrials = 1'000'000;
  static constexpr int kAblationRounds = 2;

  explicit QuoteStream(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    pricer_.reset();
    data::YeltGenConfig yg;
    yg.trials = kTrials;
    yg.seed = mix_seed(seed_, 1);
    yelt_ = traced("setup.generate_yelt", [&] { return data::generate_yelt(kCatalog, yg); });
    finance::PortfolioGenConfig pg;
    pg.contracts = kContracts;
    pg.catalog_events = kCatalog;
    pg.elt_rows = kEltRows;
    pg.seed = mix_seed(seed_, 2);
    book_ = traced("setup.generate_book", [&] { return finance::generate_portfolio(pg); });
    pricer_ = std::make_unique<core::RealTimePricer>(yelt_);
  }

  OpOutcome run_op(std::size_t k) override {
    const auto& [contract, layer] = quote_inputs(reference_key(k));
    OpOutcome out;
    const auto t0 = Clock::now();
    const auto quote = traced("core.price", [&] { return pricer_->price(contract, layer); });
    out.seconds = seconds_since(t0);
    out.digest = digest(quote);
    return out;
  }

  std::size_t reference_key(std::size_t k) const override { return k % cycle(); }
  std::size_t cycle() const override { return kContracts * kTermVariants; }

  std::uint64_t oracle(std::size_t key) const override {
    core::EngineConfig sequential;
    sequential.backend = core::Backend::Sequential;
    const core::RealTimePricer pricer(yelt_, sequential);
    const auto& [contract, layer] = quote_inputs(key);
    return digest(pricer.price(contract, layer));
  }

  void ablations(int& next_op, std::vector<OpOutcome>&) override {
    for (int round = 0; round < kAblationRounds; ++round) {
      // One quote per contract, each under a different term variant.
      for (std::size_t key = 0; key < cycle(); key += kContracts + 1) {
        const auto& [contract, layer] = quote_inputs(key);
        for (const auto& [name, config] : ablation_variants(core::EngineConfig{})) {
          const core::RealTimePricer pricer(yelt_, config);
          traced_op(next_op, name,
                    [&] { return traced("core.price", [&] { return pricer.price(contract, layer); }); });
        }
        traced_op(next_op, "probe.run_layer", [&] {
          return traced("core.run_layer", [&] {
            return core::run_layer(contract, layer, yelt_, core::EngineConfig{});
          });
        });
        traced_op(next_op, "probe.resolve", [&] {
          return traced("data.resolve",
                        [&] { return data::ResolvedYelt::build(contract.elt(), yelt_); });
        });
      }
    }
  }

  const char* main_call() const override { return "core.price"; }

 private:
  std::pair<const finance::Contract&, finance::Layer> quote_inputs(std::size_t key) const {
    const auto& contract = book_.contract(key % kContracts);
    finance::Layer layer = contract.layers()[0];
    const double v = static_cast<double>(key / kContracts);
    layer.terms.occ_retention *= 0.5 + 0.5 * v;
    layer.terms.occ_limit *= 1.0 + 0.5 * v;
    layer.terms.agg_limit = 2.0 * layer.terms.occ_limit;
    return {contract, layer};
  }

  static std::uint64_t digest(const core::PricingQuote& q) {
    Digest h;
    for (const double v : {q.loss_stats.expected_loss, q.loss_stats.loss_stdev,
                           q.loss_stats.tvar_99, q.technical_premium, q.rate_on_line,
                           q.pml_250}) {
      h.add(v);
    }
    h.add(static_cast<std::uint64_t>(q.trials));
    return h.value();
  }

  std::uint64_t seed_;
  data::YearEventLossTable yelt_;
  finance::Portfolio book_;
  std::unique_ptr<core::RealTimePricer> pricer_;
};

// ---------------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string reference;
  std::size_t record_reference = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else if (flag == "--reference") {
      a.reference = value;
    } else if (flag == "--record-reference") {
      a.record_reference = std::stoull(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !(a.seconds > 0.0)) {
    throw std::invalid_argument("--workload and a positive --seconds are required");
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "book_rollup") {
    return std::make_unique<BookRollup>(
        a.seed, a.out_dir + "/book_rollup-seed" + std::to_string(a.seed) + ".chk");
  }
  if (a.workload == "quote_stream") {
    return std::make_unique<QuoteStream>(a.seed);
  }
  throw std::invalid_argument("unknown workload " + a.workload);
}

/// Reference digests for (workload, seed, key) read from a text file of
/// "<workload> <seed> <key> <digest-hex>" lines.
std::map<std::size_t, std::uint64_t> load_references(const Args& a) {
  std::map<std::size_t, std::uint64_t> refs;
  std::ifstream in(a.reference);
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t key = 0;
  std::string hex;
  while (in >> workload >> seed >> key >> hex) {
    if (workload == a.workload && seed == a.seed) {
      refs[key] = std::stoull(hex, nullptr, 16);
    }
  }
  return refs;
}

/// Oracle digests for `keys`, computed on up to hardware_concurrency client
/// threads (each oracle run is single-threaded). A key whose oracle throws
/// gets no digest, so its operations count as failed.
std::map<std::size_t, std::uint64_t> run_oracles(const Workload& w,
                                                 const std::vector<std::size_t>& keys) {
  std::vector<std::optional<std::uint64_t>> digests(keys.size());
  std::atomic<std::size_t> next{0};
  const std::size_t threads =
      std::min<std::size_t>(keys.size(), std::max(1u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < keys.size(); i = next++) {
        try {
          digests[i] = w.oracle(keys[i]);
        } catch (const std::exception& e) {
          std::cerr << "perfbench: oracle for key " << keys[i] << " failed: " << e.what()
                    << "\n";
        }
      }
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }
  std::map<std::size_t, std::uint64_t> out;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (digests[i]) {
      out[keys[i]] = *digests[i];
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::vector<std::pair<std::string, std::string>> provenance(const Args& a) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const auto simd = core::exec::simd_dispatch();
  return {{"workload", json_string(a.workload)},
          {"seed", std::to_string(a.seed)},
          {"seconds", json_number(a.seconds)},
          {"trace", a.trace ? "1" : "0"},
          {"nproc", std::to_string(nproc)},
          {"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
          {"pool_threads", std::to_string(ThreadPool::shared().thread_count())},
          {"simd_dispatch", json_string(simd.name)},
          {"simd_width", std::to_string(simd.width)},
          {"simd_compiled", simd.compiled ? "true" : "false"},
          {"simd_option", json_string(PERFBENCH_SIMD_OPTION)},
          {"compiler", json_string("g++ " __VERSION__)},
          {"build_type", json_string(PERFBENCH_BUILD_TYPE)}};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Per-layer metrics from the traced run's spans and op outcomes.
class SpanStats {
 public:
  explicit SpanStats(const std::vector<Span>& spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent < 0) {
        if (s.op >= 0) {
          root_name_[s.op] = s.name;
          root_seconds_[s.op] = s.end - s.start;
        }
        continue;
      }
      by_op_[s.op][s.name] += s.end - s.start;
      if (spans[static_cast<std::size_t>(s.parent)].parent < 0) {
        covered_[s.op] += s.end - s.start;
      }
    }
  }

  /// Median over ops under root `root` of the summed duration of spans
  /// named `name` in each op; 0 when no such op ran.
  double median_child(const std::string& root, const std::string& name) const {
    std::vector<double> per_op;
    for (const auto& [op, root_name] : root_name_) {
      if (root_name == root) {
        const auto it = by_op_.find(op);
        double sum = 0.0;
        if (it != by_op_.end() && it->second.count(name)) {
          sum = it->second.at(name);
        }
        per_op.push_back(sum);
      }
    }
    return median(per_op);
  }

  /// Share of the wall-clock of ops under `root` not covered by any child
  /// span.
  double unattributed(const std::string& root) const {
    double wall = 0.0;
    double covered = 0.0;
    for (const auto& [op, root_name] : root_name_) {
      if (root_name == root) {
        wall += root_seconds_.at(op);
        const auto it = covered_.find(op);
        covered += it == covered_.end() ? 0.0 : it->second;
      }
    }
    return wall > 0.0 ? (wall - covered) / wall : 0.0;
  }

 private:
  std::map<int, std::string> root_name_;
  std::map<int, double> root_seconds_;
  std::map<int, std::map<std::string, double>> by_op_;
  std::map<int, double> covered_;
};

double share_saved(double variant, double base) {
  return base > 0.0 && variant > 0.0 ? 1.0 - variant / base : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void write_spans(const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < g_tracer.spans.size(); ++i) {
    const Span& s = g_tracer.spans[i];
    out << (i ? ",\n" : "") << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << json_number(s.start * 1e6)
        << ", \"dur\": " << json_number((s.end - s.start) * 1e6) << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}}";
  }
  out << "\n]}\n";
}

int run(const Args& a) {
  std::filesystem::create_directories(a.out_dir);
  auto workload = make_workload(a);
  ThreadPool::shared();  // the engine's lazily built pool belongs to setup

  if (a.record_reference > 0) {
    workload->setup();
    std::vector<std::size_t> keys;
    for (std::size_t k = 0; k < a.record_reference; ++k) {
      const std::size_t key = workload->reference_key(k);
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
    for (const auto& [key, digest] : run_oracles(*workload, keys)) {
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(digest));
      std::cout << a.workload << " " << a.seed << " " << key << " " << hex << "\n";
    }
    return 0;
  }

  // Set-up, repeated; setup_s is the median.
  constexpr int kSetupRepeats = 3;
  g_tracer.enabled = a.trace;
  std::vector<double> setup_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    SpanScope scope("setup");
    workload->setup();
    setup_times.push_back(seconds_since(t0));
  }

  // Timed closed loop after a warm-up (checked, not timed). In the
  // traced run every other op records spans, so the two populations give
  // the tracing overhead; the parity flips each input cycle so both see
  // every input.
  std::vector<OpOutcome> outcomes;
  std::vector<double> latencies;
  std::vector<double> traced_latencies;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto run_one = [&](std::size_t k, bool trace_op) {
    ++attempted;
    g_tracer.enabled = trace_op;
    g_tracer.op = static_cast<int>(k);
    try {
      std::optional<SpanScope> root;
      if (trace_op) {
        root.emplace("op");
      }
      outcomes.push_back(workload->run_op(k));
      outcomes.back().op = k;
      return true;
    } catch (const std::exception& e) {
      std::cerr << "perfbench: op " << k << " threw: " << e.what() << "\n";
      ++failed;
      return false;
    }
  };
  // The first few ops of a process run slower (allocator and page-cache
  // warm-up); a user of a long-lived process sees the steady state.
  constexpr double kWarmupSeconds = 3.0;
  std::size_t k = 0;
  for (const auto warmup_start = Clock::now();
       k == 0 || seconds_since(warmup_start) < kWarmupSeconds; ++k) {
    run_one(k, false);
  }
  const std::size_t warmup = k;
  const auto loop_start = Clock::now();
  while (seconds_since(loop_start) < a.seconds) {
    const std::size_t cycle = workload->cycle();
    const bool trace_op = a.trace && (k + (cycle > 1 ? k / cycle : 0)) % 2 == 1;
    if (run_one(k, trace_op)) {
      (trace_op ? traced_latencies : latencies).push_back(outcomes.back().seconds);
    }
    ++k;
  }
  const double rss_mb = peak_rss_mb();
  double latency_sum = 0.0;
  for (const double t : latencies) {
    latency_sum += t;
  }

  int next_op = static_cast<int>(k);
  std::vector<OpOutcome> streamed;
  if (a.trace) {
    g_tracer.enabled = true;
    g_tracer.op = -1;
    workload->ablations(next_op, streamed);
  }
  g_tracer.enabled = false;

  // Checks, outside every timed and set-up interval.
  auto refs = a.reference.empty() ? std::map<std::size_t, std::uint64_t>{} : load_references(a);
  std::vector<std::size_t> missing;
  for (const auto& o : outcomes) {
    const std::size_t key = workload->reference_key(o.op);
    if (!refs.count(key) && std::find(missing.begin(), missing.end(), key) == missing.end()) {
      missing.push_back(key);
    }
  }
  for (const auto& [key, digest] : run_oracles(*workload, missing)) {
    refs[key] = digest;
  }
  for (const auto& o : outcomes) {
    const auto it = refs.find(workload->reference_key(o.op));
    if (it == refs.end() || it->second != o.digest) {
      std::cerr << "perfbench: op " << o.op << " output mismatches its reference\n";
      ++failed;
    }
  }

  std::vector<Metric> metrics;
  std::vector<double> occurrences, gathered, bytes_read, produce;
  for (const auto& o : outcomes) {
    occurrences.push_back(static_cast<double>(o.occurrences));
    gathered.push_back(static_cast<double>(o.gathered_bytes));
  }
  for (const auto& o : streamed) {
    bytes_read.push_back(static_cast<double>(o.bytes_read));
    produce.push_back(o.produce_seconds);
  }
  const double fail_ratio = ratio(static_cast<double>(failed), static_cast<double>(attempted));
  if (!a.trace) {
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"op_p50_ms", 1e3 * median(latencies), "ms"},
        {"ops_per_s", ratio(static_cast<double>(latencies.size()), latency_sum), "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const SpanStats stats(g_tracer.spans);
    const std::string main = workload->main_call();
    const double base_s = stats.median_child("ablate.default", main);
    const double engine_s = stats.median_child("op", "core.run_aggregate_analysis");
    const double run_layer_s = stats.median_child("probe.run_layer", "core.run_layer");
    const double price_s = stats.median_child("op", "core.price");
    const double next_wait_s = stats.median_child("ablate.streamed", "data.next");
    const double produce_s = median(produce);
    const double occ = median(occurrences);
    metrics = {
        {"core.engine_s", engine_s, "s"},
        {"core.occ_per_s", ratio(occ, engine_s), "1/s"},
        {"core.occurrences", occ, "count"},
        {"core.gathered_bytes_computed", median(gathered), "bytes"},
        {"core.sampling_share",
         share_saved(stats.median_child("ablate.secondary_off", main), base_s), "ratio"},
        {"core.oep_share", share_saved(stats.median_child("ablate.oep_off", main), base_s),
         "ratio"},
        {"core.run_layer_s", run_layer_s, "s"},
        {"core.pricer_post_s", run_layer_s > 0.0 ? price_s - run_layer_s : 0.0, "s"},
        {"core.metrics_s",
         stats.median_child("op", "core.summarise") +
             stats.median_child("op", "core.exceedance_curve"),
         "s"},
        {"dfa.run_s", stats.median_child("op", "dfa.run"), "s"},
        {"parallel.speedup", ratio(stats.median_child("ablate.sequential", main), base_s),
         "ratio"},
        {"parallel.threads", static_cast<double>(ThreadPool::shared().thread_count()),
         "count"},
        {"data.resolve_s", stats.median_child("probe.resolve", "data.resolve"), "s"},
        {"data.next_wait_s", next_wait_s, "s"},
        {"data.produce_s", produce_s, "s"},
        {"data.decode_mb_per_s", ratio(median(bytes_read) / 1e6, produce_s), "MB/s"},
        {"data.overlap", produce_s > 0.0 ? 1.0 - next_wait_s / produce_s : 0.0, "ratio"},
        {"data.bytes_read", median(bytes_read), "bytes"},
        {"data.stream_vs_inmem",
         ratio(stats.median_child("ablate.streamed", "core.run_aggregate_analysis"),
               stats.median_child("ablate.default", "core.run_aggregate_analysis")),
         "ratio"},
        {"unattributed_fraction", stats.unattributed("op"), "ratio"},
        {"trace_overhead", ratio(median(traced_latencies), median(latencies)), "ratio"},
        {"fail_ratio", fail_ratio, "ratio"},
    };
    write_spans(a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                ".spans.json");
  }

  // The run's record: provenance, sample counts and every metric.
  std::string record = "{";
  for (const auto& [key, value] : provenance(a)) {
    record += json_string(key) + ": " + value + ", ";
  }
  record += "\"ops_timed\": " + std::to_string(latencies.size() + traced_latencies.size()) +
            ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) +
            ", \"fail_ratio\": " + json_number(fail_ratio) +
            ", \"warmup_ops\": " + std::to_string(warmup) +
            ", \"op_p90_ms\": " + json_number(1e3 * quantile(latencies, 0.9)) +
            ", \"occurrences_per_op\": " + json_number(median(occurrences)) +
            ", \"bytes_read_per_streamed_op\": " + json_number(median(bytes_read)) +
            ", \"gathered_bytes_computed_per_op\": " + json_number(median(gathered)) +
            ", \"oracle_keys\": " + std::to_string(missing.size()) +
            ", \"op_seconds\": [";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    record += (i ? ", " : "") + json_number(outcomes[i].seconds);
  }
  record += "], \"metrics\": " + metrics_json(metrics) + "}";
  std::ofstream(a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + "-trace" +
                (a.trace ? "1" : "0") + ".record.json")
      << record << "\n";
  std::cout << "record: " << record << "\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
