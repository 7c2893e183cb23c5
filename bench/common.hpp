// Shared workload builders and reporting helpers for the experiment
// benches (E1..E9). Every bench prints the rows of the paper claim it
// reproduces (see DESIGN.md section 3) and mirrors them to CSV next to the
// binary when RISKAN_BENCH_CSV_DIR is set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/yelt.hpp"
#include "finance/contract.hpp"
#include "util/format.hpp"
#include "util/report.hpp"
#include "util/stopwatch.hpp"

namespace riskan::bench {

/// Standard stage-2 workload used across E2/E4/E5/E6: a mid-size book over
/// a 10k-event catalogue.
struct Workload {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
  EventId catalog_events = 0;
};

inline Workload make_workload(std::size_t contracts, std::size_t elt_rows, TrialId trials,
                              double events_per_year = 10.0,
                              EventId catalog_events = 10'000,
                              int layers_per_contract = 1) {
  Workload w;
  w.catalog_events = catalog_events;

  finance::PortfolioGenConfig pg;
  pg.contracts = contracts;
  pg.catalog_events = catalog_events;
  pg.elt_rows = elt_rows;
  pg.layers_per_contract = layers_per_contract;
  pg.seed = 4242;
  w.portfolio = finance::generate_portfolio(pg);

  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.mean_events_per_year = events_per_year;
  yg.seed = 777;
  w.yelt = data::generate_yelt(catalog_events, yg);
  return w;
}

/// Quick mode shrinks trial counts ~10x so the full bench suite stays fast
/// in CI; set RISKAN_BENCH_QUICK=1.
inline bool quick_mode() {
  const char* env = std::getenv("RISKAN_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

inline TrialId scaled_trials(TrialId full) {
  return quick_mode() ? std::max<TrialId>(1'000, full / 10) : full;
}

/// Resolves the directory bench artifacts land in: $RISKAN_BENCH_CSV_DIR
/// when set, else the working directory.
inline std::string artifact_path(const std::string& filename) {
  if (const char* dir = std::getenv("RISKAN_BENCH_CSV_DIR")) {
    return std::string(dir) + "/" + filename;
  }
  return filename;
}

/// Prints the table and optionally mirrors it to $RISKAN_BENCH_CSV_DIR/<id>.csv.
inline void emit(const std::string& experiment_id, const ReportTable& table) {
  table.print(std::cout);
  if (std::getenv("RISKAN_BENCH_CSV_DIR") != nullptr) {
    table.write_csv(artifact_path(experiment_id + ".csv"));
  }
}

/// Flat machine-readable bench record: ordered key→value pairs serialised
/// as one JSON object, so future PRs can track a perf trajectory without
/// parsing the ASCII tables. Numbers are emitted as numbers, everything
/// else as strings.
class JsonReport {
 public:
  void set(const std::string& key, double value) {
    entries_.emplace_back(key, format_fixed(value, 6));
  }
  void set(const std::string& key, std::uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + value + "\"");
  }

  /// Writes `{ "k": v, ... }`. Keys are expected to be plain identifiers
  /// (no escaping is performed).
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << "  \"" << entries_[i].first << "\": " << entries_[i].second;
      out << (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    out << "}\n";
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Host parallel capacity, read in the same run as a threaded timing: the
/// same fixed spin loop on one thread, then on every hardware thread at
/// once; the efficiency is the one-thread time over the all-threads time
/// (1.0 = every thread ran at full speed). Shared hosts that deliver fewer
/// cores than they report read well below 1, and a threaded ratio taken
/// there says more about the host than about the program.
inline double spin_efficiency() {
  const auto spin = [] {
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  const auto timed = [&spin](unsigned threads) {
    std::vector<std::uint64_t> sink(threads);
    Stopwatch watch;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, &spin, t] { sink[t] = spin(); });
    }
    for (auto& thread : pool) {
      thread.join();
    }
    const double seconds = watch.seconds();
    volatile std::uint64_t keep = sink[0];
    (void)keep;
    return seconds;
  };
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  return timed(1) / timed(threads);
}

}  // namespace riskan::bench
