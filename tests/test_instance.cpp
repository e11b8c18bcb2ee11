#include "steiner/instance.hpp"

#include <gtest/gtest.h>

#include "steiner_reference.hpp"

namespace dsf {
namespace {

TEST(IcInstanceTest, TerminalAndComponentCounts) {
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {2, 1}, {3, 2}, {5, 2}});
  EXPECT_EQ(ic.NumTerminals(), 4);
  EXPECT_EQ(ic.NumComponents(), 2);
  EXPECT_TRUE(ic.IsTerminal(0));
  EXPECT_FALSE(ic.IsTerminal(1));
  EXPECT_EQ(ic.LabelOf(3), 2);
  EXPECT_EQ(ic.Terminals(), (std::vector<NodeId>{0, 2, 3, 5}));
  EXPECT_EQ(ic.DistinctLabels(), (std::vector<Label>{1, 2}));
}

TEST(IcInstanceTest, MinimalityCheck) {
  const IcInstance minimal = MakeIcInstance(4, {{0, 1}, {1, 1}});
  EXPECT_TRUE(minimal.IsMinimal());
  const IcInstance nonminimal = MakeIcInstance(4, {{0, 1}, {1, 1}, {2, 9}});
  EXPECT_FALSE(nonminimal.IsMinimal());
  EXPECT_EQ(nonminimal.NumNontrivialComponents(), 1);
}

TEST(IcInstanceTest, MakeMinimalDropsSingletons) {
  const IcInstance ic = MakeIcInstance(5, {{0, 1}, {1, 1}, {3, 7}});
  const IcInstance m = MakeMinimal(ic);
  EXPECT_TRUE(m.IsMinimal());
  EXPECT_EQ(m.NumComponents(), 1);
  EXPECT_FALSE(m.IsTerminal(3));
  EXPECT_TRUE(m.IsTerminal(0));
}

TEST(CrInstanceTest, TerminalsFromRequests) {
  const CrInstance cr = MakeCrInstance(6, {{0, 3}, {1, 4}});
  EXPECT_EQ(cr.NumTerminals(), 4);
  EXPECT_EQ(cr.Terminals(), (std::vector<NodeId>{0, 1, 3, 4}));
  EXPECT_EQ(cr.NumRequests(), 4);  // symmetric closure
}

TEST(CrToIcTest, RequestComponentsBecomeLabels) {
  // Requests 0-3 and 3-5 chain into one component; 1-4 is another.
  const CrInstance cr = MakeCrInstance(6, {{0, 3}, {3, 5}, {1, 4}});
  const IcInstance ic = CrToIc(cr);
  EXPECT_EQ(ic.NumComponents(), 2);
  EXPECT_EQ(ic.LabelOf(0), ic.LabelOf(3));
  EXPECT_EQ(ic.LabelOf(3), ic.LabelOf(5));
  EXPECT_EQ(ic.LabelOf(1), ic.LabelOf(4));
  EXPECT_NE(ic.LabelOf(0), ic.LabelOf(1));
  // Labels are the smallest terminal id of the component (Lemma 2.3).
  EXPECT_EQ(ic.LabelOf(0), 0);
  EXPECT_EQ(ic.LabelOf(1), 1);
}

TEST(CrToIcTest, EmptyRequests) {
  const CrInstance cr = MakeCrInstance(4, {});
  const IcInstance ic = CrToIc(cr);
  EXPECT_EQ(ic.NumTerminals(), 0);
  EXPECT_EQ(ic.NumComponents(), 0);
}

TEST(EquivalenceTest, SameGroupingDifferentLabelNames) {
  const IcInstance a = MakeIcInstance(5, {{0, 10}, {1, 10}, {3, 20}, {4, 20}});
  const IcInstance b = MakeIcInstance(5, {{0, 7}, {1, 7}, {3, 9}, {4, 9}});
  EXPECT_TRUE(EquivalentInstances(a, b));
}

TEST(EquivalenceTest, DifferentGroupingNotEquivalent) {
  const IcInstance a = MakeIcInstance(5, {{0, 1}, {1, 1}, {3, 2}, {4, 2}});
  const IcInstance b = MakeIcInstance(5, {{0, 1}, {3, 1}, {1, 2}, {4, 2}});
  EXPECT_FALSE(EquivalentInstances(a, b));
}

TEST(EquivalenceTest, SingletonsIgnored) {
  const IcInstance a = MakeIcInstance(5, {{0, 1}, {1, 1}, {4, 3}});
  const IcInstance b = MakeIcInstance(5, {{0, 2}, {1, 2}});
  EXPECT_TRUE(EquivalentInstances(a, b));
}

TEST(EquivalenceTest, CrRoundTripEquivalence) {
  const CrInstance cr = MakeCrInstance(8, {{0, 2}, {2, 4}, {5, 6}});
  const IcInstance ic = CrToIc(cr);
  // Terminal grouping must match the request components.
  const IcInstance expect =
      MakeIcInstance(8, {{0, 0}, {2, 0}, {4, 0}, {5, 5}, {6, 5}});
  EXPECT_TRUE(EquivalentInstances(ic, expect));
}

}  // namespace
}  // namespace dsf
