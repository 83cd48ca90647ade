// Tests for the IIR MetaCore: the paper's validation example.
#include <gtest/gtest.h>

#include <vector>

#include "core/iir_metacore.hpp"
#include "exec/thread_pool.hpp"

namespace metacore::core {
namespace {

TEST(IirMetaCore, PaperRequirementsMatchSection53) {
  const auto req = paper_bandpass_requirements(1.0);
  EXPECT_EQ(req.filter.band, dsp::BandType::Bandpass);
  EXPECT_EQ(req.filter.family, dsp::FilterFamily::Elliptic);
  EXPECT_NEAR(req.filter.pass_lo, 0.411111, 1e-9);
  EXPECT_NEAR(req.filter.pass_hi, 0.466667, 1e-9);
  EXPECT_NEAR(req.filter.passband_ripple_db, 0.1382, 1e-3);
  EXPECT_NEAR(req.filter.stopband_atten_db, 36.04, 0.01);
  // HYPER-era technology default.
  EXPECT_NEAR(req.tech.feature_um, 1.2, 1e-12);
}

TEST(IirMetaCore, StructureEnumeration) {
  EXPECT_EQ(IirMetaCore::structure_at(0), dsp::StructureKind::DirectForm1);
  EXPECT_EQ(IirMetaCore::structure_at(5), dsp::StructureKind::LatticeLadder);
  EXPECT_THROW(IirMetaCore::structure_at(6), std::invalid_argument);
  EXPECT_THROW(IirMetaCore::structure_at(-1), std::invalid_argument);
}

TEST(IirMetaCore, DesignSpaceDimensions) {
  IirMetaCore core(paper_bandpass_requirements(1.0));
  const auto space = core.design_space();
  EXPECT_EQ(space.dimensions(), 5u);
  EXPECT_EQ(space.parameters()[0].values.size(),
            dsp::all_structures().size());
  EXPECT_GT(space.size(), 100u);
}

TEST(IirMetaCore, EvaluateGoodPointIsFeasible) {
  IirMetaCore core(paper_bandpass_requirements(2.0));
  // Parallel structure, minimum order, 14 bits, 0.7 ripple fraction.
  const auto eval = core.evaluate({4, 0, 14, 0.7, 3}, 0);
  ASSERT_TRUE(eval.feasible);
  EXPECT_TRUE(eval.has_metric("area_mm2"));
  EXPECT_LE(eval.metric("passband_ripple_db"),
            core.requirements().filter.passband_ripple_db * 1.5);
  EXPECT_GT(eval.metric("area_mm2"), 0.1);
}

TEST(IirMetaCore, TinyWordLengthViolatesSpec) {
  IirMetaCore core(paper_bandpass_requirements(2.0));
  // 8-bit direct form I: unstable or far out of spec.
  const auto eval = core.evaluate({0, 0, 8, 1.0, 3}, 0);
  const auto obj = core.objective();
  EXPECT_FALSE(obj.feasible(eval));
}

TEST(IirMetaCore, LadderInfeasibleAtVeryTightPeriod) {
  IirMetaCore core(paper_bandpass_requirements(0.2));
  const auto eval = core.evaluate({5, 0, 12, 0.7, 3}, 0);
  EXPECT_FALSE(eval.feasible);
}

TEST(IirMetaCore, SearchFindsSpecMeetingDesign) {
  IirMetaCore core(paper_bandpass_requirements(1.0));
  search::SearchConfig config;
  config.max_resolution = 2;
  config.regions_per_level = 3;
  config.max_evaluations = 300;
  const auto result = core.search(config);
  ASSERT_TRUE(result.found_feasible);
  const auto& eval = result.best.eval;
  EXPECT_LE(eval.metric("passband_ripple_db"),
            core.requirements().filter.passband_ripple_db + 1e-9);
  EXPECT_LE(eval.metric("stopband_gain_db"),
            -core.requirements().filter.stopband_atten_db + 1e-9);
  // The chosen structure should not be a raw direct form (word-length cost).
  const auto structure = IirMetaCore::structure_at(
      static_cast<int>(result.best.values[0]));
  EXPECT_NE(structure, dsp::StructureKind::DirectForm1);
}

TEST(IirMetaCore, BestFeasibleBelowAverageFeasible) {
  // The headline Table 4 property: the optimized design is far below the
  // average evaluated candidate.
  IirMetaCore core(paper_bandpass_requirements(1.0));
  search::SearchConfig config;
  config.max_resolution = 1;
  config.max_evaluations = 150;
  const auto result = core.search(config);
  ASSERT_TRUE(result.found_feasible);
  double sum = 0.0;
  int n = 0;
  for (const auto& p : result.history) {
    if (p.eval.feasible && p.eval.has_metric("area_mm2")) {
      sum += p.eval.metric("area_mm2");
      ++n;
    }
  }
  ASSERT_GT(n, 5);
  EXPECT_LT(result.best.eval.metric("area_mm2"), sum / n);
}

TEST(IirMetaCore, RejectsBadRequirements) {
  auto req = paper_bandpass_requirements(1.0);
  req.sample_period_us = 0.0;
  EXPECT_THROW(IirMetaCore{req}, std::invalid_argument);
  req = paper_bandpass_requirements(1.0);
  req.filter.pass_lo = 0.9;
  EXPECT_THROW(IirMetaCore{req}, std::invalid_argument);
}

TEST(IirMetaCore, RejectsWrongPointArity) {
  IirMetaCore core(paper_bandpass_requirements(1.0));
  EXPECT_THROW(core.evaluate({0, 0}, 0), std::invalid_argument);
}

TEST(IirMetaCore, FamilyDimensionFixedByDefault) {
  IirMetaCore fixed(paper_bandpass_requirements(1.0));
  EXPECT_EQ(fixed.design_space().parameters()[4].values.size(), 1u);
  auto req = paper_bandpass_requirements(1.0);
  req.explore_family = true;
  IirMetaCore open(req);
  EXPECT_EQ(open.design_space().parameters()[4].values.size(), 4u);
}

TEST(IirMetaCore, FamilyExplorationEvaluatesChebyshev) {
  auto req = paper_bandpass_requirements(2.0);
  req.explore_family = true;
  IirMetaCore core(req);
  // Chebyshev-I, minimum order, 14 bits, full ripple budget.
  const auto eval = core.evaluate({4, 0, 14, 0.7, 1}, 0);
  EXPECT_TRUE(eval.feasible);
  EXPECT_TRUE(eval.has_metric("area_mm2"));
}

TEST(IirMetaCore, ParallelEvaluationMatchesSerial) {
  // Every point shares its filter design with others, and a fresh core
  // starts with an empty design cache, so pool threads race to fill the
  // same entries (run under -DMETACORE_SANITIZE=thread to check the lock).
  std::vector<std::vector<double>> points;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const double structure : {0.0, 2.0, 4.0, 5.0}) {
      for (const double extra_order : {0.0, 1.0}) {
        for (const double ripple : {0.7, 1.0}) {
          points.push_back({structure, extra_order, 14.0, ripple, 3.0});
        }
      }
    }
  }
  const auto requirements = paper_bandpass_requirements(2.0);
  const IirMetaCore serial_core(requirements);
  std::vector<search::Evaluation> serial;
  for (const auto& point : points) {
    serial.push_back(serial_core.evaluate(point, 0));
  }

  const IirMetaCore parallel_core(requirements);
  std::vector<search::Evaluation> parallel(points.size());
  exec::ThreadPool pool(4);
  pool.parallel_for(points.size(), [&](std::size_t i) {
    parallel[i] = parallel_core.evaluate(points[i], 0);
  });

  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(parallel[i].feasible, serial[i].feasible) << "point " << i;
    EXPECT_EQ(parallel[i].metrics, serial[i].metrics) << "point " << i;
    EXPECT_EQ(parallel[i].confidence_weight, serial[i].confidence_weight)
        << "point " << i;
    EXPECT_EQ(parallel[i].failure_reason, serial[i].failure_reason)
        << "point " << i;
  }
}

}  // namespace
}  // namespace metacore::core
