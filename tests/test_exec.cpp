// The execution layer on its own: ExecutionPlan::lower's slot checks and
// grouping, rebind's same-request checks, and exec::execute's determinism
// across backends, trial grains and per-block re-binding. The entry points
// reach this layer through their own tests; these drive it directly with
// hand-built slot lists.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/aggregate_engine.hpp"
#include "core/exec.hpp"
#include "core/portfolio_batch.hpp"
#include "core/secondary.hpp"
#include "data/resolved_yelt.hpp"
#include "finance/contract.hpp"
#include "util/prng.hpp"
#include "util/require.hpp"

namespace riskan::core::exec {
namespace {

/// A two-contract, two-layer book over a small YELT, with each contract's
/// compact resolution and sampler.
struct World {
  finance::Portfolio portfolio;
  data::YearEventLossTable yelt;
  std::vector<data::CompactResolvedYelt> compacts;
  std::vector<SecondarySampler> samplers;
};

World make_world(TrialId trials = 300) {
  finance::PortfolioGenConfig pg;
  pg.contracts = 2;
  pg.catalog_events = 200;
  pg.elt_rows = 60;
  pg.layers_per_contract = 2;
  pg.seed = 31;
  data::YeltGenConfig yg;
  yg.trials = trials;
  yg.seed = 5;
  World w{finance::generate_portfolio(pg), data::generate_yelt(200, yg), {}, {}};
  std::vector<const data::EventLossTable*> elts;
  for (const auto& contract : w.portfolio.contracts()) {
    elts.push_back(&contract.elt());
    w.samplers.emplace_back(contract.elt());
  }
  w.compacts = data::CompactResolvedYelt::build(elts, w.yelt);
  return w;
}

/// One slot per (contract, layer), each writing its own output columns.
struct SlotSet {
  std::vector<batch::Slot> slots;
  std::vector<std::vector<Money>> losses;
  std::vector<std::vector<Money>> reinstatement;
};

/// The world's slots gathering through `compacts` (one per contract,
/// resolved against a YELT of `trials` trials).
SlotSet make_slots(const World& w, const std::vector<data::CompactResolvedYelt>& compacts,
                   TrialId trials, bool secondary) {
  SlotSet set;
  for (std::size_t c = 0; c < w.portfolio.size(); ++c) {
    const auto& contract = w.portfolio.contract(c);
    for (const auto& layer : contract.layers()) {
      set.slots.push_back(
          batch::make_slot(contract, layer, compacts[c], secondary ? &w.samplers[c] : nullptr));
    }
  }
  set.losses.assign(set.slots.size(), std::vector<Money>(trials, 0.0));
  set.reinstatement.assign(set.slots.size(), std::vector<Money>(trials, 0.0));
  for (std::size_t i = 0; i < set.slots.size(); ++i) {
    set.slots[i].portfolio_losses = set.losses[i];
    set.slots[i].reinstatement_prem = set.reinstatement[i];
  }
  return set;
}

SlotSet make_slots(const World& w, TrialId trials, bool secondary) {
  return make_slots(w, w.compacts, trials, secondary);
}

/// Lowers and executes every (contract, layer) slot over the world's YELT.
SlotSet run_slots(const World& w, const EngineConfig& config) {
  SlotSet set = make_slots(w, w.yelt.trials(), config.secondary_uncertainty);
  const auto plan = ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), config);
  execute(plan, Philox4x32(config.seed), config);
  return set;
}

void expect_identical(const SlotSet& a, const SlotSet& b, const std::string& what) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << what;
  for (std::size_t s = 0; s < a.losses.size(); ++s) {
    for (std::size_t t = 0; t < a.losses[s].size(); ++t) {
      ASSERT_EQ(a.losses[s][t], b.losses[s][t]) << what << " slot " << s << " trial " << t;
      ASSERT_EQ(a.reinstatement[s][t], b.reinstatement[s][t])
          << what << " slot " << s << " trial " << t;
    }
  }
}

TEST(ExecutionPlan, LowerRejectsEmptySlotList) {
  const auto w = make_world();
  EXPECT_THROW((void)ExecutionPlan::lower({}, w.yelt.offsets(), w.yelt.trials(), {}),
               ContractViolation);
}

TEST(ExecutionPlan, LowerKeepsDistinctLayersInSeparateGroups) {
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/true);
  const auto plan = ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), {});
  ASSERT_EQ(plan.groups.size(), set.slots.size());
  EXPECT_EQ(plan.max_group_size, 1u);
  EXPECT_EQ(plan.trials, w.yelt.trials());
  EXPECT_EQ(plan.trial_base, 0u);
  EXPECT_TRUE(plan.secondary);
}

TEST(ExecutionPlan, LowerGroupsSlotsSharingAGather) {
  // Two slots of one (contract, layer) — a scenario pair — share a gather
  // group; the plan sizes scratch for it.
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/true);
  std::vector<batch::Slot> slots = {set.slots[0], set.slots[0], set.slots[1]};
  slots[1].loss_scale = 1.5;
  const auto plan = ExecutionPlan::lower(slots, w.yelt.offsets(), w.yelt.trials(), {});
  ASSERT_EQ(plan.groups.size(), 2u);
  EXPECT_EQ(plan.groups[0].begin, 0u);
  EXPECT_EQ(plan.groups[0].size, 2u);
  EXPECT_EQ(plan.groups[1].begin, 2u);
  EXPECT_EQ(plan.groups[1].size, 1u);
  EXPECT_EQ(plan.max_group_size, 2u);
}

TEST(ExecutionPlan, LowerRecordsEachGroupsTable) {
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/true);
  const auto plan = ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), {});
  ASSERT_EQ(plan.group_elts.size(), plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    EXPECT_EQ(plan.group_elts[g], set.slots[plan.groups[g].begin].elt) << "group " << g;
  }
  EXPECT_EQ(plan.group_elts.front(), &w.portfolio.contract(0).elt());
  EXPECT_EQ(plan.group_elts.back(), &w.portfolio.contract(1).elt());
}

TEST(ExecutionPlan, LowerRejectsSlotWithoutTable) {
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/true);
  set.slots[1].elt = nullptr;
  EXPECT_THROW((void)ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), {}),
               ContractViolation);
}

TEST(ExecutionPlan, LowerRejectsSecondaryWithoutSampler) {
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/false);
  EngineConfig config;
  config.secondary_uncertainty = true;
  EXPECT_THROW(
      (void)ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), config),
      ContractViolation);
}

TEST(ExecutionPlan, LowerRejectsMeansPathSlotWithoutMeans) {
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/false);
  set.slots[0].means = nullptr;
  EngineConfig config;
  config.secondary_uncertainty = false;
  EXPECT_THROW(
      (void)ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), config),
      ContractViolation);
}

TEST(ExecutionPlan, RebindRejectsChangedSlotCount) {
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/true);
  auto plan = ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), {});
  const std::span<const batch::Slot> fewer(set.slots.data(), set.slots.size() - 1);
  EXPECT_THROW(plan.rebind(fewer, w.yelt.offsets(), w.yelt.trials(), 0), ContractViolation);
}

TEST(ExecutionPlan, RebindRejectsChangedGroupStructure) {
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/true);
  auto plan = ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), {});
  // Same length, but the first two slots now share a gather group.
  std::vector<batch::Slot> merged = set.slots;
  merged[1] = merged[0];
  EXPECT_THROW(plan.rebind(merged, w.yelt.offsets(), w.yelt.trials(), 0), ContractViolation);
}

TEST(ExecutionPlan, RebindRejectsChangedGroupTable) {
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/false);
  EngineConfig config;
  config.secondary_uncertainty = false;
  auto plan = ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), config);
  // Same groups, but the first group now gathers from the other contract's
  // table: a different request, not a new block of this one.
  std::vector<batch::Slot> swapped = set.slots;
  swapped[0].elt = &w.portfolio.contract(1).elt();
  EXPECT_THROW(plan.rebind(swapped, w.yelt.offsets(), w.yelt.trials(), 0), ContractViolation);
}

TEST(ExecutionPlan, RebindCarriesGroupsAndMovesTrialRange) {
  const auto w = make_world();
  auto set = make_slots(w, w.yelt.trials(), /*secondary=*/true);
  auto plan = ExecutionPlan::lower(set.slots, w.yelt.offsets(), w.yelt.trials(), {});
  const auto groups = plan.groups;
  const auto elts = plan.group_elts;
  plan.rebind(set.slots, w.yelt.offsets(), w.yelt.trials() / 2, 17);
  EXPECT_EQ(plan.trials, w.yelt.trials() / 2);
  EXPECT_EQ(plan.trial_base, 17u);
  ASSERT_EQ(plan.groups.size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(plan.groups[g].begin, groups[g].begin);
    EXPECT_EQ(plan.groups[g].size, groups[g].size);
  }
  EXPECT_EQ(plan.group_elts, elts);
}

TEST(Execute, SequentialAndThreadedAreBitIdentical) {
  const auto w = make_world();
  for (const bool secondary : {false, true}) {
    EngineConfig config;
    config.secondary_uncertainty = secondary;
    config.backend = Backend::Sequential;
    const auto seq = run_slots(w, config);
    config.backend = Backend::Threaded;
    const auto thr = run_slots(w, config);
    expect_identical(seq, thr, secondary ? "secondary" : "means");
  }
}

TEST(Execute, ThreadedTrialGrainDoesNotMoveBits) {
  const auto w = make_world();
  EngineConfig config;
  config.backend = Backend::Sequential;
  const auto reference = run_slots(w, config);
  config.backend = Backend::Threaded;
  for (const std::size_t grain :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{w.yelt.trials() + 1}}) {
    config.trial_grain = grain;
    expect_identical(reference, run_slots(w, config), "grain " + std::to_string(grain));
  }
}

TEST(Execute, OneSlotPlanMatchesRunLayer) {
  const auto w = make_world();
  const auto& contract = w.portfolio.contract(1);
  const auto& layer = contract.layers()[1];
  for (const bool secondary : {false, true}) {
    EngineConfig config;
    config.secondary_uncertainty = secondary;
    std::vector<Money> losses(w.yelt.trials(), 0.0);
    std::vector<Money> reinstatement(w.yelt.trials(), 0.0);
    batch::Slot slot =
        batch::make_slot(contract, layer, w.compacts[1], secondary ? &w.samplers[1] : nullptr);
    slot.portfolio_losses = losses;
    slot.reinstatement_prem = reinstatement;
    const auto plan = ExecutionPlan::lower({&slot, 1}, w.yelt.offsets(), w.yelt.trials(), config);
    execute(plan, Philox4x32(config.seed), config);

    const auto expected = run_layer(contract, layer, w.yelt, config);
    ASSERT_EQ(expected.size(), losses.size());
    for (TrialId t = 0; t < w.yelt.trials(); ++t) {
      ASSERT_EQ(expected[t], losses[t]) << (secondary ? "secondary" : "means") << " trial " << t;
    }
  }
}

TEST(Execute, TrialBaseOnlyMovesTheSamplingStreams) {
  const auto w = make_world();
  EngineConfig config;
  config.secondary_uncertainty = false;
  const auto means = run_slots(w, config);
  config.trial_base = 1'000;
  expect_identical(means, run_slots(w, config), "means path, shifted base");

  config = EngineConfig{};
  const auto sampled = run_slots(w, config);
  config.trial_base = 1'000;
  const auto shifted = run_slots(w, config);
  bool any_differs = false;
  for (std::size_t s = 0; s < sampled.losses.size() && !any_differs; ++s) {
    any_differs = sampled.losses[s] != shifted.losses[s];
  }
  EXPECT_TRUE(any_differs) << "a shifted trial base must draw from other streams";
}

/// Trials [lo, hi) of `yelt` as their own table.
data::YearEventLossTable trial_block(const data::YearEventLossTable& yelt, TrialId lo,
                                    TrialId hi) {
  data::YearEventLossTable::Builder builder(hi - lo);
  for (TrialId t = lo; t < hi; ++t) {
    builder.begin_trial();
    const auto events = yelt.trial_events(t);
    const auto days = yelt.trial_days(t);
    for (std::size_t i = 0; i < events.size(); ++i) {
      builder.add(events[i], days[i]);
    }
  }
  return builder.finish();
}

TEST(Execute, RebindPerBlockMatchesOneWholeRun) {
  // Lower once on the first block, re-bind for the second: the two blocks
  // together reproduce the single whole-range run bit for bit.
  const auto w = make_world(/*trials=*/240);
  for (const Backend backend : kAllBackends) {
    EngineConfig config;
    config.backend = backend;
    const auto whole = run_slots(w, config);

    const TrialId split = 101;
    const std::vector<data::YearEventLossTable> blocks = {
        trial_block(w.yelt, 0, split), trial_block(w.yelt, split, w.yelt.trials())};
    std::optional<ExecutionPlan> plan;
    TrialId base = 0;
    for (const auto& block : blocks) {
      std::vector<const data::EventLossTable*> elts;
      for (const auto& contract : w.portfolio.contracts()) {
        elts.push_back(&contract.elt());
      }
      const auto compacts = data::CompactResolvedYelt::build(elts, block);
      auto set = make_slots(w, compacts, block.trials(), config.secondary_uncertainty);
      if (!plan) {
        plan = ExecutionPlan::lower(set.slots, block.offsets(), block.trials(), config);
      } else {
        plan->rebind(set.slots, block.offsets(), block.trials(), base);
      }
      execute(*plan, Philox4x32(config.seed), config);
      for (std::size_t s = 0; s < set.slots.size(); ++s) {
        for (TrialId t = 0; t < block.trials(); ++t) {
          ASSERT_EQ(whole.losses[s][base + t], set.losses[s][t])
              << to_string(backend) << " slot " << s << " trial " << base + t;
        }
      }
      base += block.trials();
    }
  }
}

}  // namespace
}  // namespace riskan::core::exec
