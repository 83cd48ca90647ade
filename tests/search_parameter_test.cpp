// Tests for the design-space formulation.
#include <gtest/gtest.h>

#include <limits>

#include "search/parameter.hpp"

namespace metacore::search {
namespace {

DesignSpace small_space() {
  return DesignSpace({
      {"a", {1.0, 2.0, 3.0}, false, Correlation::Monotonic},
      {"b", {10.0, 20.0}, false, Correlation::NonCorrelated},
  });
}

TEST(DesignSpace, SizeIsProductOfDomains) {
  EXPECT_EQ(small_space().size(), 6u);
}

TEST(DesignSpace, SizeSaturatesForHugeSpaces) {
  std::vector<ParameterDef> params;
  for (int d = 0; d < 20; ++d) {
    ParameterDef p;
    p.name = "p";
    p.name += std::to_string(d);
    p.values.assign(1000, 0.0);
    for (int i = 0; i < 1000; ++i) p.values[static_cast<std::size_t>(i)] = i;
    params.push_back(p);
  }
  EXPECT_EQ(DesignSpace(params).size(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(DesignSpace, ValuesAtMapsIndices) {
  const auto space = small_space();
  EXPECT_EQ(space.values_at({0, 1}), (std::vector<double>{1.0, 20.0}));
  EXPECT_EQ(space.values_at({2, 0}), (std::vector<double>{3.0, 10.0}));
}

TEST(DesignSpace, NormalizedCoordinates) {
  const auto space = small_space();
  EXPECT_EQ(space.normalized({0, 0}), (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(space.normalized({2, 1}), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(space.normalized({1, 0}), (std::vector<double>{0.5, 0.0}));
}

TEST(DesignSpace, IndexValidation) {
  const auto space = small_space();
  EXPECT_THROW(space.values_at({0}), std::out_of_range);
  EXPECT_THROW(space.values_at({3, 0}), std::out_of_range);
  EXPECT_THROW(space.values_at({0, -1}), std::out_of_range);
}

TEST(DesignSpace, FindByName) {
  const auto space = small_space();
  EXPECT_EQ(space.find("a"), 0);
  EXPECT_EQ(space.find("b"), 1);
  EXPECT_EQ(space.find("zzz"), -1);
}

TEST(DesignSpace, RejectsDegenerateDefinitions) {
  EXPECT_THROW(DesignSpace({}), std::invalid_argument);
  EXPECT_THROW(DesignSpace({{"", {1.0}, false, Correlation::Smooth}}),
               std::invalid_argument);
  EXPECT_THROW(DesignSpace({{"x", {}, false, Correlation::Smooth}}),
               std::invalid_argument);
}

TEST(Correlation, Names) {
  EXPECT_EQ(to_string(Correlation::NonCorrelated), "non-correlated");
  EXPECT_EQ(to_string(Correlation::Probabilistic), "probabilistic");
}

}  // namespace
}  // namespace metacore::search
