// Tests for the util module (error macros, ASCII rendering) and the
// topology-metrics helpers.
#include "topology/generators.h"
#include "topology_metrics.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/check.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace webwave {
namespace {

TEST(CheckMacros, RequireThrowsInvalidArgumentWithContext) {
  try {
    WEBWAVE_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
  }
}

TEST(CheckMacros, AssertThrowsLogicError) {
  EXPECT_THROW(WEBWAVE_ASSERT(false, "broken"), std::logic_error);
  EXPECT_NO_THROW(WEBWAVE_ASSERT(true, "fine"));
}

TEST(AsciiTableTest, AlignsColumnsAndSeparatesHeader) {
  AsciiTable t({"name", "value"});
  t.AddRow({"alpha", "1.00"});
  t.AddRow({"a-much-longer-name", "2.50"});
  const std::string out = t.Render();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
}

TEST(AsciiTableTest, RejectsMismatchedRows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
  EXPECT_THROW(AsciiTable({}), std::invalid_argument);
}

TEST(AsciiTableTest, NumberFormatting) {
  EXPECT_EQ(AsciiTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::Num(2.0, 0), "2");
  EXPECT_EQ(AsciiTable::Int(-42), "-42");
}

TEST(AsciiBarChartTest, ScalesBarsToMaximum) {
  const std::string out =
      AsciiBarChart({{"a", 10.0}, {"b", 5.0}, {"c", 0.0}}, 10);
  // 'a' gets the full 10 hashes, 'b' five, 'c' none.
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(NetworkMetricsTest, RingValues) {
  // Ring of 8 as a Network: diameter 4, mean degree 2, no hubs.
  Network net(8);
  for (int v = 0; v < 8; ++v) net.AddEdge(v, (v + 1) % 8);
  const NetworkMetrics m = ComputeNetworkMetrics(net);
  EXPECT_EQ(m.nodes, 8);
  EXPECT_EQ(m.edges, 8);
  EXPECT_DOUBLE_EQ(m.mean_degree, 2);
  EXPECT_EQ(m.max_degree, 2);
  EXPECT_EQ(m.diameter_hops, 4);
  EXPECT_DOUBLE_EQ(m.hub_fraction, 0);
}

TEST(NetworkMetricsTest, BarabasiAlbertLooksInternetLike) {
  Rng rng(7);
  const Network net = MakeBarabasiAlbert(200, 2, rng);
  const NetworkMetrics m = ComputeNetworkMetrics(net);
  EXPECT_GT(m.hub_fraction, 0.01) << "preferential attachment grows hubs";
  EXPECT_LT(m.diameter_hops, 12) << "small-world diameter";
  Rng rng2(7);
  const Network er = MakeErdosRenyi(200, 0.02, rng2);
  const NetworkMetrics em = ComputeNetworkMetrics(er);
  EXPECT_GT(m.hub_fraction, em.hub_fraction)
      << "BA must be more hub-heavy than Erdős–Rényi";
}

TEST(TreeMetricsTest, KaryTreeValues) {
  const TreeMetrics m = ComputeTreeMetrics(MakeKaryTree(2, 3));
  EXPECT_EQ(m.nodes, 15);
  EXPECT_EQ(m.height, 3);
  EXPECT_EQ(m.leaves, 8);
  EXPECT_EQ(m.max_children, 2);
  EXPECT_DOUBLE_EQ(m.mean_children_of_interior, 2);
  // Mean depth of a complete binary tree of depth 3:
  // (0 + 2*1 + 4*2 + 8*3) / 15.
  EXPECT_NEAR(m.mean_depth, 34.0 / 15.0, 1e-12);
}

}  // namespace
}  // namespace webwave
