#include "scenario/report.hpp"

#include <algorithm>
#include <ostream>
#include <vector>

#include "util/format.hpp"
#include "util/report.hpp"
#include "util/require.hpp"
#include "util/stats.hpp"

namespace riskan::scenario {

namespace {

/// A copy of `ylt`'s losses ordered once for every level a row reads —
/// 0.99 (VaR, TVaR), 1 - 1/250 (PML) and 1 - 1/rp per curve point — so
/// the row costs one partial sort per YLT instead of one full sort per
/// metric, with the full-sort answers bit for bit (sort_upper_tail).
std::vector<Money> ordered_for_row(const data::YearLossTable& ylt,
                                   std::span<const double> return_periods) {
  RISKAN_REQUIRE(!ylt.empty(), "scenario metrics of an empty YLT");
  double lowest = 0.99;
  for (const double rp : return_periods) {
    RISKAN_REQUIRE(rp > 1.0, "return periods must exceed 1 year");
    lowest = std::min(lowest, 1.0 - 1.0 / rp);
  }
  const auto losses = ylt.losses();
  std::vector<Money> ordered(losses.begin(), losses.end());
  sort_upper_tail(ordered, lowest);
  return ordered;
}

ScenarioRow make_row(const std::string& name, const core::EngineResult& result,
                     std::span<const double> return_periods) {
  ScenarioRow row;
  row.name = name;
  row.aal = result.portfolio_ylt.mean();
  const auto aep = ordered_for_row(result.portfolio_ylt, return_periods);
  row.var_99 = quantile_sorted(aep, 0.99);
  row.tvar_99 = tail_mean_above(aep, 0.99);
  row.pml_250 = quantile_sorted(aep, 1.0 - 1.0 / 250.0);
  for (const double rp : return_periods) {
    row.aep.push_back(quantile_sorted(aep, 1.0 - 1.0 / rp));
  }
  if (!result.portfolio_occurrence_ylt.empty()) {
    const auto oep = ordered_for_row(result.portfolio_occurrence_ylt, return_periods);
    for (const double rp : return_periods) {
      row.oep.push_back(quantile_sorted(oep, 1.0 - 1.0 / rp));
    }
  }
  return row;
}

void fill_deltas(ScenarioRow& row, const ScenarioRow& base) {
  row.delta_aal = row.aal - base.aal;
  row.delta_var_99 = row.var_99 - base.var_99;
  row.delta_tvar_99 = row.tvar_99 - base.tvar_99;
  row.delta_pml_250 = row.pml_250 - base.pml_250;
  row.delta_aep.resize(row.aep.size());
  for (std::size_t i = 0; i < row.aep.size(); ++i) {
    row.delta_aep[i] = row.aep[i] - base.aep[i];
  }
  row.delta_oep.resize(row.oep.size());
  for (std::size_t i = 0; i < row.oep.size() && i < base.oep.size(); ++i) {
    row.delta_oep[i] = row.oep[i] - base.oep[i];
  }
}

std::string signed_count(Money delta) {
  if (delta < 0.0) {
    return "-" + format_count(-delta);
  }
  return "+" + format_count(delta);
}

}  // namespace

ScenarioReport build_report(const core::EngineResult& base,
                            std::span<const core::EngineResult> results,
                            std::span<const ScenarioSpec> specs) {
  RISKAN_REQUIRE(results.size() == specs.size(),
                 "scenario results and specs must be parallel");
  ScenarioReport report;
  report.return_periods = core::standard_return_periods();
  report.base = make_row("base", base, report.return_periods);
  report.rows.reserve(results.size());
  for (std::size_t s = 0; s < results.size(); ++s) {
    report.rows.push_back(make_row(specs[s].name, results[s], report.return_periods));
    fill_deltas(report.rows.back(), report.base);
  }
  return report;
}

void ScenarioReport::print(std::ostream& os) const {
  ReportTable table({"scenario", "AAL", "dAAL", "VaR99", "dVaR99", "TVaR99", "dTVaR99",
                     "PML250", "dPML250"});
  table.add_row({base.name, format_count(base.aal), "-", format_count(base.var_99), "-",
                 format_count(base.tvar_99), "-", format_count(base.pml_250), "-"});
  for (const ScenarioRow& row : rows) {
    table.add_row({row.name, format_count(row.aal), signed_count(row.delta_aal),
                   format_count(row.var_99), signed_count(row.delta_var_99),
                   format_count(row.tvar_99), signed_count(row.delta_tvar_99),
                   format_count(row.pml_250), signed_count(row.delta_pml_250)});
  }
  table.print(os);
}

}  // namespace riskan::scenario
