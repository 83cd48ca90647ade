// Tests for the baseline search strategies and Pareto utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "search/baselines.hpp"
#include "search/pareto.hpp"

namespace metacore::search {
namespace {

DesignSpace grid(int dims, int points) {
  std::vector<ParameterDef> params;
  for (int d = 0; d < dims; ++d) {
    ParameterDef p;
    p.name = "x";
    p.name += std::to_string(d);
    for (int i = 0; i < points; ++i) {
      p.values.push_back(static_cast<double>(i) / (points - 1));
    }
    params.push_back(p);
  }
  return DesignSpace(params);
}

Objective minimize_cost() {
  Objective obj;
  obj.minimize = "cost";
  return obj;
}

EvaluateFn bowl(std::vector<double> opt) {
  return [opt](const std::vector<double>& p, int) {
    double v = 0.0;
    for (std::size_t d = 0; d < p.size(); ++d) {
      v += (p[d] - opt[d]) * (p[d] - opt[d]);
    }
    Evaluation e;
    e.metrics["cost"] = v;
    return e;
  };
}

TEST(RandomSearch, RespectsBudgetAndFindsSomething) {
  const auto space = grid(2, 17);
  const auto result =
      random_search(space, minimize_cost(), bowl({0.5, 0.5}), 60);
  EXPECT_LE(result.evaluations, 60u);
  EXPECT_TRUE(result.found_feasible);
  EXPECT_LT(result.best.eval.metric("cost"), 0.5);
}

TEST(RandomSearch, DeterministicPerSeed) {
  const auto space = grid(2, 9);
  const auto a = random_search(space, minimize_cost(), bowl({0.25, 0.75}), 30,
                               0, /*seed=*/5);
  const auto b = random_search(space, minimize_cost(), bowl({0.25, 0.75}), 30,
                               0, /*seed=*/5);
  EXPECT_EQ(a.best.indices, b.best.indices);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(RandomSearch, DoesNotRevisitPoints) {
  const auto space = grid(1, 5);  // only 5 points
  const auto result =
      random_search(space, minimize_cost(), bowl({0.5}), 100);
  EXPECT_LE(result.evaluations, 5u);
}

TEST(RandomSearch, RejectsNullEvaluator) {
  const auto space = grid(1, 5);
  EXPECT_THROW(random_search(space, minimize_cost(), nullptr, 10),
               std::invalid_argument);
}

TEST(GridSearch, CoversTheSparseGrid) {
  const auto space = grid(2, 9);
  const auto result =
      grid_search(space, minimize_cost(), bowl({0.5, 0.5}), 3, 100);
  EXPECT_EQ(result.evaluations, 9u);  // 3 x 3
  EXPECT_EQ(result.levels_executed, 1);
}

TEST(ParetoFront, ExtractsNonDominatedStaircase) {
  std::vector<EvaluatedPoint> history;
  auto add = [&](double x, double y, bool feasible = true) {
    EvaluatedPoint p;
    p.eval.feasible = feasible;
    p.eval.metrics["x"] = x;
    p.eval.metrics["y"] = y;
    history.push_back(p);
  };
  add(1.0, 5.0);
  add(2.0, 3.0);
  add(3.0, 4.0);   // dominated by (2, 3)
  add(4.0, 1.0);
  add(0.5, 9.0);
  add(1.5, 2.0, /*feasible=*/false);  // skipped
  const auto front = pareto_front(history, "x", "y");
  ASSERT_EQ(front.size(), 4u);
  EXPECT_DOUBLE_EQ(front[0].eval.metric("x"), 0.5);
  EXPECT_DOUBLE_EQ(front[1].eval.metric("x"), 1.0);
  EXPECT_DOUBLE_EQ(front[2].eval.metric("x"), 2.0);
  EXPECT_DOUBLE_EQ(front[3].eval.metric("x"), 4.0);
}

TEST(ParetoFront, EmptyOnNoFeasiblePoints) {
  std::vector<EvaluatedPoint> history(3);
  for (auto& p : history) p.eval.feasible = false;
  EXPECT_TRUE(pareto_front(history, "x", "y").empty());
}

TEST(ParetoFront, DeduplicatesMetricTiesKeepingLowestIndices) {
  // Three points with identical (x, y): exactly one survives, and it is
  // the lexicographically smallest grid index regardless of history order.
  std::vector<EvaluatedPoint> history;
  auto add = [&](std::vector<int> indices) {
    EvaluatedPoint p;
    p.indices = std::move(indices);
    p.eval.metrics["x"] = 2.0;
    p.eval.metrics["y"] = 3.0;
    history.push_back(p);
  };
  add({4, 1});
  add({0, 7});
  add({0, 2});
  const auto front = pareto_front(history, "x", "y");
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].indices, (std::vector<int>{0, 2}));

  // Same set in a different order picks the same survivor.
  std::reverse(history.begin(), history.end());
  const auto reversed = pareto_front(history, "x", "y");
  ASSERT_EQ(reversed.size(), 1u);
  EXPECT_EQ(reversed[0].indices, (std::vector<int>{0, 2}));
}

TEST(ParetoFront, EqualYTieKeepsOnlyTheLowerX) {
  std::vector<EvaluatedPoint> history(2);
  history[0].eval.metrics["x"] = 1.0;
  history[0].eval.metrics["y"] = 2.0;
  history[1].eval.metrics["x"] = 3.0;
  history[1].eval.metrics["y"] = 2.0;  // weakly dominated
  const auto front = pareto_front(history, "x", "y");
  ASSERT_EQ(front.size(), 1u);
  EXPECT_DOUBLE_EQ(front[0].eval.metric("x"), 1.0);
}

TEST(Hypervolume, SinglePointRectangle) {
  std::vector<EvaluatedPoint> history(1);
  history[0].eval.metrics["x"] = 1.0;
  history[0].eval.metrics["y"] = 2.0;
  EXPECT_NEAR(hypervolume_2d(history, "x", "y", 3.0, 4.0), 2.0 * 2.0, 1e-12);
}

TEST(Hypervolume, StaircaseAddsDisjointStrips) {
  std::vector<EvaluatedPoint> history(2);
  history[0].eval.metrics["x"] = 1.0;
  history[0].eval.metrics["y"] = 3.0;
  history[1].eval.metrics["x"] = 2.0;
  history[1].eval.metrics["y"] = 1.0;
  // Ref (4, 4): strip1 = (2-1)*(4-3) = 1; strip2 = (4-2)*(4-1) = 6.
  EXPECT_NEAR(hypervolume_2d(history, "x", "y", 4.0, 4.0), 7.0, 1e-12);
}

TEST(Hypervolume, PointsBeyondReferenceIgnored) {
  std::vector<EvaluatedPoint> history(1);
  history[0].eval.metrics["x"] = 5.0;
  history[0].eval.metrics["y"] = 5.0;
  EXPECT_DOUBLE_EQ(hypervolume_2d(history, "x", "y", 4.0, 4.0), 0.0);
}

TEST(Hypervolume, EmptyFrontHasZeroVolume) {
  EXPECT_DOUBLE_EQ(hypervolume_2d({}, "x", "y", 4.0, 4.0), 0.0);
}

TEST(Hypervolume, AllPointsBeyondReference) {
  // Degenerate front: every point outside the reference box, in both
  // coordinates separately (x beyond, y beyond, both beyond).
  std::vector<EvaluatedPoint> history(3);
  history[0].eval.metrics["x"] = 9.0;
  history[0].eval.metrics["y"] = 1.0;
  history[1].eval.metrics["x"] = 1.0;
  history[1].eval.metrics["y"] = 9.0;
  history[2].eval.metrics["x"] = 9.0;
  history[2].eval.metrics["y"] = 9.0;
  EXPECT_DOUBLE_EQ(hypervolume_2d(history, "x", "y", 4.0, 4.0), 0.0);
}

TEST(Hypervolume, SinglePointOnReferenceBoundaryIsZero) {
  std::vector<EvaluatedPoint> history(1);
  history[0].eval.metrics["x"] = 4.0;  // exactly on the reference
  history[0].eval.metrics["y"] = 1.0;
  EXPECT_DOUBLE_EQ(hypervolume_2d(history, "x", "y", 4.0, 4.0), 0.0);
}

TEST(AnnealingSearch, ConvergesOnBowl) {
  const auto space = grid(2, 33);
  AnnealingConfig config;
  config.budget = 400;
  config.cooling = 0.99;
  const auto result =
      annealing_search(space, minimize_cost(), bowl({0.40625, 0.59375}), config);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_LT(result.best.eval.metric("cost"), 0.02);
  EXPECT_LE(result.evaluations, 400u);
}

TEST(AnnealingSearch, HandlesConstraints) {
  const auto space = grid(2, 17);
  Objective obj;
  obj.minimize = "x";
  obj.constraints.push_back({Constraint::Kind::LowerBound, "y", 0.5});
  auto eval = [](const std::vector<double>& p, int) {
    Evaluation e;
    e.metrics["x"] = p[0];
    e.metrics["y"] = p[1];
    return e;
  };
  AnnealingConfig config;
  config.budget = 600;
  config.cooling = 0.995;
  const auto result = annealing_search(space, obj, eval, config);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_LE(result.best.eval.metric("x"), 0.2);
  EXPECT_GE(result.best.eval.metric("y"), 0.5);
}

TEST(AnnealingSearch, Rejections) {
  const auto space = grid(1, 5);
  EXPECT_THROW(annealing_search(space, minimize_cost(), nullptr),
               std::invalid_argument);
  AnnealingConfig bad;
  bad.cooling = 1.5;
  EXPECT_THROW(annealing_search(space, minimize_cost(), bowl({0.5}), bad),
               std::invalid_argument);
}

TEST(Baselines, MultiresBeatsRandomAtEqualBudget) {
  // On a smooth bowl the structured search should land (much) closer to
  // the optimum than uniform random sampling with the same budget.
  const auto space = grid(3, 33);
  const std::vector<double> opt{0.40625, 0.59375, 0.5};
  SearchConfig config;
  config.max_resolution = 4;
  config.regions_per_level = 2;
  MultiresolutionSearch engine(space, minimize_cost(), bowl(opt), config);
  const auto structured = engine.run();
  const auto random = random_search(space, minimize_cost(), bowl(opt),
                                    structured.evaluations);
  ASSERT_TRUE(structured.found_feasible && random.found_feasible);
  EXPECT_LT(structured.best.eval.metric("cost"),
            random.best.eval.metric("cost"));
}

}  // namespace
}  // namespace metacore::search
