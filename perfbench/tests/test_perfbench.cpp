// Unit tests of the benchmark's own code: percentiles, error accounting,
// and request-stream determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stats.hpp"
#include "stream.hpp"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankPicksTheCeilRankSample) {
  EXPECT_EQ(NearestRank(OneTo(4), 0.5), 2);
  EXPECT_EQ(NearestRank(OneTo(5), 0.5), 3);
  EXPECT_EQ(NearestRank(OneTo(100), 0.99), 99);
  EXPECT_EQ(NearestRank(OneTo(1), 0.99), 1);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
}

TEST(Percentile, P99NeedsTenSamplesBeyondItAtOneThousand) {
  EXPECT_EQ(NearestRank(OneTo(1000), 0.99), 990);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), kMinSamplesBeyond);
  EXPECT_LT(SamplesBeyond(999, 0.99), kMinSamplesBeyond);
  EXPECT_EQ(NearestRank(OneTo(999), 0.99), 990);  // ceil(989.01)
  EXPECT_EQ(SamplesBeyond(1001, 0.99), kMinSamplesBeyond);  // rank ceil(990.99) = 991
  EXPECT_EQ(SamplesBeyond(1100, 0.99), 11u);
  EXPECT_EQ(SamplesBeyond(20, 0.5), kMinSamplesBeyond);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
}

TEST(Percentile, WindowedMediansIgnoreOneSlowSlice) {
  // Ten one-second slices with ten 1 ms samples each, except slice 3,
  // which is slow and sparse.
  std::vector<double> done, lat;
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < (w == 3 ? 2 : 10); ++i) {
      done.push_back(w + i / 10.0);
      lat.push_back(w == 3 ? 50.0 : 1.0);
    }
  }
  const Windowed m = WindowedMedians(done, lat, 10.0, 10);
  EXPECT_EQ(m.p50, 1.0);
  EXPECT_EQ(m.rate, 10.0);
}

TEST(Errors, RefusedResponsesCountAsErrors) {
  Tally t;
  const std::string ok =
      R"({"id":"c0-1","ok":true,"wall_ms":1.5,"results":[{"solver":"gw-moat","weight":7,)"
      R"("feasible":true,"edges":[1,2],"rounds":0,"messages":0,"wall_ms":0.5,"cached":false,"key":"ab"}]})";
  t.Add(ClassifyResponse(ok, "").outcome);
  const Response overloaded = ClassifyResponse(R"({"ok":false,"error":"overloaded","queue_depth":4})", "");
  EXPECT_EQ(overloaded.outcome, Outcome::kRefused);
  t.Add(overloaded.outcome);
  const Response shed =
      ClassifyResponse(R"({"ok":false,"error":"unavailable","backends_down":2,"backends":2})", "");
  EXPECT_EQ(shed.outcome, Outcome::kRefused);
  t.Add(shed.outcome);
  EXPECT_EQ(t.attempted, 3u);
  EXPECT_EQ(t.refused, 2u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_DOUBLE_EQ(t.ErrorRate(), 2.0 / 3.0);
}

TEST(Errors, InfeasibleMismatchedAndBrokenResponsesCount) {
  const std::string infeasible =
      R"({"ok":true,"wall_ms":1,"results":[{"solver":"mst-prune","weight":3,"feasible":false,)"
      R"("edges":[],"rounds":0,"messages":0,"wall_ms":0.1,"cached":false,"key":"k1"}]})";
  EXPECT_EQ(ClassifyResponse(infeasible, "").outcome, Outcome::kInfeasible);
  const std::string revised =
      R"({"ok":true,"warm":true,"key":"k2","wall_ms":1,"results":[{"solver":"local-search",)"
      R"("weight":3,"feasible":true,"edges":[4],"rounds":0,"messages":0,"wall_ms":0.1,"cached":false,"key":"k2"}]})";
  EXPECT_EQ(ClassifyResponse(revised, "k2").outcome, Outcome::kOk);
  EXPECT_EQ(ClassifyResponse(revised, "k3").outcome, Outcome::kMismatch);
  EXPECT_EQ(ClassifyResponse("{\"ok\":tru", "").outcome, Outcome::kError);
  EXPECT_EQ(ClassifyResponse(R"({"ok":false,"error":"bad spec"})", "").outcome, Outcome::kError);
  Tally t;
  t.Add(Outcome::kTransport);
  EXPECT_EQ(t.failed, 1u);
}

TEST(Errors, StripIdRemovesOnlyTheIdMember) {
  EXPECT_EQ(StripId(R"({"id":"c1-2","ok":true})"), R"({"ok":true})");
  EXPECT_EQ(StripId(R"({"op":"solve","id":"c0-9","spec":"x"})"), R"({"op":"solve","spec":"x"})");
  EXPECT_EQ(StripId(R"({"ok":true})"), R"({"ok":true})");
}

class StreamDeterminism : public ::testing::TestWithParam<Workload> {};

TEST_P(StreamDeterminism, SameSeedSameBytesOtherSeedOtherStream) {
  const RequestStream a(GetParam(), 7);
  const RequestStream b(GetParam(), 7);
  const RequestStream other(GetParam(), 8);
  int differing = 0;
  for (int c = 0; c < kClients; ++c) {
    for (long k = 0; k < 6; ++k) {
      const Request ra = a.Line(c, k);
      const Request rb = b.Line(c, k);
      EXPECT_EQ(ra.line, rb.line) << "client " << c << " request " << k;
      EXPECT_EQ(ra.expect_key, rb.expect_key);
      differing += ra.line != other.Line(c, k).line ? 1 : 0;
    }
  }
  EXPECT_EQ(differing, kClients * 6);
  // Lines are independent of the order they are generated in.
  EXPECT_EQ(a.Line(1, 5).line, RequestStream(GetParam(), 7).Line(1, 5).line);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, StreamDeterminism,
                         ::testing::Values(Workload::kColdDist, Workload::kHotMix,
                                           Workload::kChurnRevise),
                         [](const auto& info) {
                           std::string name(WorkloadName(info.param));
                           for (char& ch : name) ch = ch == '-' ? '_' : ch;
                           return name;
                         });

TEST(Stream, ColdDistRequestsAreUnique) {
  const RequestStream s(Workload::kColdDist, 3);
  std::vector<std::string> seen;
  for (int c = 0; c < kClients; ++c) {
    for (long k = 0; k < 50; ++k) seen.push_back(StripId(s.Line(c, k).line));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Stream, ChurnChainsOnThePreviousKey) {
  const RequestStream s(Workload::kChurnRevise, 5);
  const Request first = s.Line(1, 2);
  EXPECT_FALSE(first.revise);
  const Request second = s.Line(1, 2 + kChainsPerClient);  // the same chain's next step
  EXPECT_EQ(s.ChurnAt(1, 2 + kChainsPerClient).chain, s.ChurnAt(1, 2).chain);
  EXPECT_TRUE(second.revise);
  EXPECT_NE(second.line.find("\"base\":\"" + first.expect_key + "\""), std::string::npos);
  EXPECT_EQ(second.line.find("\"solvers\""), std::string::npos);
  EXPECT_NE(second.expect_key, first.expect_key);
}

TEST(Stream, WorkloadNamesRoundTrip) {
  for (const char* name : {"cold-dist", "hot-mix", "churn-revise"}) {
    const auto w = ParseWorkloadName(name);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(WorkloadName(*w), name);
  }
  EXPECT_FALSE(ParseWorkloadName("hot_mix").has_value());
}

}  // namespace
}  // namespace perfbench
