// The shard-router tier (DESIGN.md §5): consistent hash ring, per-backend
// health machines, retry/backoff, canonical request keying, the hot cache,
// and the router end to end over sockets — failover on backend death,
// probe-gated re-admission, structured shedding when every replica is down,
// fault-injection (drop / truncate / delay) recovery, and the chaos
// contract: killing a backend mid-load never changes a single response
// byte relative to one-shot solves.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/json.hpp"
#include "common/random.hpp"
#include "serve/client.hpp"
#include "serve/retry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "solve/solver.hpp"
#include "workload/spec.hpp"

namespace dsf {
namespace {

// --- hash ring ---------------------------------------------------------------

TEST(HashRingTest, PreferenceOrderCoversAllBackendsDeterministically) {
  const HashRing ring(5, 64);
  for (std::uint64_t p :
       std::vector<std::uint64_t>{0ull, 1ull, Mix64(42), ~0ull}) {
    const std::vector<int> order = ring.PreferenceOrder(p);
    ASSERT_EQ(order.size(), 5u) << p;
    std::set<int> distinct(order.begin(), order.end());
    EXPECT_EQ(distinct.size(), 5u) << p;
    EXPECT_EQ(order, ring.PreferenceOrder(p)) << p;  // deterministic
    EXPECT_EQ(order[0], ring.PrimaryBackend(p)) << p;
  }
}

TEST(HashRingTest, KeysSpreadAcrossBackends) {
  const HashRing ring(4, 64);
  std::vector<int> owned(4, 0);
  constexpr int kKeys = 4096;
  for (int i = 0; i < kKeys; ++i) {
    ++owned[static_cast<std::size_t>(
        ring.PrimaryBackend(Mix64(static_cast<std::uint64_t>(i))))];
  }
  // Virtual nodes keep the split coarse-grained fair: no backend owns less
  // than half or more than double its fair share.
  for (int b = 0; b < 4; ++b) {
    EXPECT_GT(owned[static_cast<std::size_t>(b)], kKeys / 8) << b;
    EXPECT_LT(owned[static_cast<std::size_t>(b)], kKeys / 2) << b;
  }
}

TEST(HashRingTest, SingleBackendOwnsEverything) {
  const HashRing ring(1, 16);
  EXPECT_EQ(ring.PrimaryBackend(123), 0);
  EXPECT_EQ(ring.PreferenceOrder(123), std::vector<int>{0});
}

// --- health machine ----------------------------------------------------------

TEST(HealthMachineTest, DownAfterFailuresProbesReAdmit) {
  HealthMachine m(HealthPolicy{2, 2});
  EXPECT_TRUE(m.IsUp());
  EXPECT_FALSE(m.RecordFailure());  // 1 of 2
  EXPECT_TRUE(m.IsUp());
  m.RecordSuccess();  // in-band success clears the streak while up
  EXPECT_FALSE(m.RecordFailure());  // streak restarted: 1 of 2
  EXPECT_TRUE(m.RecordFailure());   // 2 consecutive -> down transition
  EXPECT_FALSE(m.IsUp());
  EXPECT_FALSE(m.RecordFailure());  // already down: no second transition

  // In-band successes never re-admit: only probes prove recovery.
  m.RecordSuccess();
  EXPECT_FALSE(m.IsUp());

  EXPECT_FALSE(m.RecordProbeSuccess());  // 1 of 2
  EXPECT_FALSE(m.IsUp());
  EXPECT_TRUE(m.RecordProbeSuccess());  // consecutive -> up transition
  EXPECT_TRUE(m.IsUp());

  // A failure between probe successes resets the streak.
  EXPECT_FALSE(m.RecordFailure());
  EXPECT_TRUE(m.RecordFailure());
  EXPECT_FALSE(m.IsUp());
  EXPECT_FALSE(m.RecordProbeSuccess());
  EXPECT_FALSE(m.RecordFailure());
  EXPECT_FALSE(m.RecordProbeSuccess());  // streak restarted at 1
  EXPECT_FALSE(m.IsUp());
  EXPECT_TRUE(m.RecordProbeSuccess());
  EXPECT_TRUE(m.IsUp());
}

// --- retry backoff -----------------------------------------------------------

TEST(RetryBackoffTest, ExponentialBoundedJitterDeterministic) {
  const RetryPolicy policy{5, 100, 1000};
  for (int attempt = 0; attempt < 8; ++attempt) {
    const long long uncapped = 100LL << std::min(attempt, 20);
    const long long cap = std::min<long long>(uncapped, 1000);
    const int d1 = BackoffDelayMs(policy, attempt, 42);
    const int d2 = BackoffDelayMs(policy, attempt, 42);
    EXPECT_EQ(d1, d2) << attempt;  // same (nonce, attempt) -> same delay
    EXPECT_GE(d1, cap / 2) << attempt;
    EXPECT_LE(d1, cap) << attempt;
  }
  // Distinct nonces decorrelate (no stampede in lockstep).
  std::set<int> delays;
  for (std::uint64_t nonce = 0; nonce < 32; ++nonce) {
    delays.insert(BackoffDelayMs(policy, 3, nonce));
  }
  EXPECT_GT(delays.size(), 8u);
  // Zero base disables waiting; huge attempts do not overflow.
  EXPECT_EQ(BackoffDelayMs(RetryPolicy{1, 0, 1000}, 3, 1), 0);
  EXPECT_LE(BackoffDelayMs(policy, 1000, 1), 1000);
  EXPECT_GE(BackoffDelayMs(policy, 1000, 1), 1);
}

// --- canonical request keying ------------------------------------------------

TEST(RouterKeyTest, FramingInvariantContentSensitive) {
  const auto key = [](const char* line) {
    return RouterRequestKey(CanonicalRequestText(ParseJson(line)));
  };
  // Key order, whitespace, and the id are framing, not content.
  const CacheKey k = key(R"({"op":"solve","generate":"grid","seed":7})");
  EXPECT_EQ(k, key(R"({"seed":7,  "op":"solve","generate":"grid"})"));
  EXPECT_EQ(k, key(R"({"id":"x","op":"solve","generate":"grid","seed":7})"));
  // Content splits the key.
  EXPECT_NE(k, key(R"({"op":"solve","generate":"grid","seed":8})"));
  EXPECT_NE(k, key(R"({"op":"stats","generate":"grid","seed":7})"));
  EXPECT_NE(k, key(R"({"op":"solve","generate":"grid"})"));
}

TEST(RouterKeyTest, NestedObjectsSortAndNumbersStayRaw) {
  const JsonValue a = ParseJson(R"({"b":{"y":1,"x":2},"a":[1,{"q":3}]})");
  const JsonValue b = ParseJson(R"({"a":[1,{"q":3}],"b":{"x":2,"y":1}})");
  EXPECT_EQ(CanonicalRequestText(a), CanonicalRequestText(b));
  EXPECT_EQ(CanonicalRequestText(a), R"({"a":[1,{"q":3}],"b":{"x":2,"y":1}})");

  // Raw literals survive: seeds above 2^53 must not collapse through a
  // double, and distinct spellings of one value stay distinct (a cache
  // miss, never a wrong result).
  const auto key = [](const char* line) {
    return RouterRequestKey(CanonicalRequestText(ParseJson(line)));
  };
  EXPECT_NE(key(R"({"seed":9007199254740992})"),
            key(R"({"seed":9007199254740993})"));
  EXPECT_NE(key(R"({"e":1000})"), key(R"({"e":1e3})"));
}

TEST(RouterKeyTest, ReviseAffinityFollowsTheBaseSolve) {
  // Ring placement for a revise must equal the placement of the solve that
  // produced its base, so the revise lands where the base result is cached.
  const JsonValue solve =
      ParseJson(R"({"op":"solve","generate":"grid","seed":7})");
  const JsonValue revise = ParseJson(
      R"({"op":"revise","generate":"grid","seed":7,)"
      R"("base":"00112233445566778899aabbccddeeff",)"
      R"("delta":{"add_terminals":[[1,2]]},"mode":"warm"})");
  EXPECT_EQ(RouteAffinityText(revise), CanonicalRequestText(solve));
  // Different deltas against one base share placement...
  const JsonValue other_delta = ParseJson(
      R"({"op":"revise","generate":"grid","seed":7,)"
      R"("base":"00112233445566778899aabbccddeeff",)"
      R"("delta":{"remove_terminals":[4]}})");
  EXPECT_EQ(RouteAffinityText(revise), RouteAffinityText(other_delta));
  // ...but distinct base framings do not.
  const JsonValue other_solve =
      ParseJson(R"({"op":"solve","generate":"grid","seed":8})");
  EXPECT_NE(RouteAffinityText(revise), CanonicalRequestText(other_solve));
  // Non-revise requests pass through unchanged.
  EXPECT_EQ(RouteAffinityText(solve), CanonicalRequestText(solve));
}

// --- hot cache ---------------------------------------------------------------

TEST(HotCacheTest, LruEvictionAndCounters) {
  HotCache cache(2);
  const CacheKey k1{1, 1}, k2{2, 2}, k3{3, 3};
  EXPECT_FALSE(cache.Lookup(k1).has_value());
  cache.Insert(k1, "r1");
  cache.Insert(k2, "r2");
  EXPECT_EQ(cache.Lookup(k1).value_or(""), "r1");  // refreshes k1
  cache.Insert(k3, "r3");                          // evicts k2 (LRU)
  EXPECT_FALSE(cache.Lookup(k2).has_value());
  EXPECT_EQ(cache.Lookup(k1).value_or(""), "r1");
  EXPECT_EQ(cache.Lookup(k3).value_or(""), "r3");
  const CacheCounters c = cache.Counters();
  EXPECT_EQ(c.inserts, 3u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.misses, 2u);
}

TEST(HotCacheTest, ZeroCapacityDisables) {
  HotCache cache(0);
  cache.Insert({1, 1}, "r");
  EXPECT_FALSE(cache.Lookup({1, 1}).has_value());
  EXPECT_EQ(cache.Counters().entries, 0u);
  // A disabled cache still counts its lookups, like serve's result cache.
  EXPECT_EQ(cache.Counters().misses, 1u);
}

// --- backend spec parsing ----------------------------------------------------

TEST(BackendSpecTest, ParsesHostPortAndBarePort) {
  const BackendSpec a = ParseBackendSpec("10.0.0.2:9001");
  EXPECT_EQ(a.host, "10.0.0.2");
  EXPECT_EQ(a.port, 9001);
  const BackendSpec b = ParseBackendSpec("9002");
  EXPECT_EQ(b.host, "127.0.0.1");
  EXPECT_EQ(b.port, 9002);
  for (const char* bad : {"", "host:", ":0", "host:70000", "host:9x", "x"}) {
    EXPECT_THROW((void)ParseBackendSpec(bad), std::runtime_error) << bad;
  }
}

// --- router end to end -------------------------------------------------------

constexpr char kWireSpec[] =
    "seed 5\n"
    "graph 6\n"
    "edge 0 1 2\n"
    "edge 1 2 3\n"
    "edge 2 3 1\n"
    "edge 3 4 4\n"
    "edge 4 5 1\n"
    "edge 0 5 2\n"
    "ic ends\n"
    "terminal 0 1\n"
    "terminal 3 1\n";

std::string EscapeForJson(const std::string& text) {
  std::ostringstream os;
  JsonWriter json(os);
  json.String(text);
  return os.str();
}

// Distinct specs differ in one edge weight; each is one solver unit.
std::string SpecText(int variant) {
  std::ostringstream os;
  os << "seed " << (variant + 1) << "\n"
     << "graph 6\n"
     << "edge 0 1 " << (variant % 9 + 1) << "\n"
     << "edge 1 2 3\nedge 2 3 1\nedge 3 4 4\nedge 4 5 1\nedge 0 5 2\n"
     << "ic ends\nterminal 0 1\nterminal 3 1\n";
  return os.str();
}

std::string SolveLine(int variant, const std::string& id = "") {
  std::ostringstream req;
  req << "{";
  if (!id.empty()) req << R"("id":)" << EscapeForJson(id) << ",";
  req << R"("op":"solve","spec":)" << EscapeForJson(SpecText(variant))
      << R"(,"solvers":["gw-moat"]})";
  return req.str();
}

struct ExpectedCell {
  Weight weight;
  std::vector<EdgeId> edges;
};

std::vector<ExpectedCell> OneShot(const std::string& spec_text,
                                  const std::vector<std::string>& solvers) {
  std::istringstream in(spec_text);
  WorkloadSpec spec = ParseWorkloadSpec(in, "<test>");
  const Workload workload = ExpandWorkload(spec);
  SolveOptions base;
  base.validate = true;
  const RequestMatrix matrix = BuildRequests(workload, solvers, base);
  std::vector<ExpectedCell> out;
  for (std::size_t i = 0; i < matrix.requests.size(); ++i) {
    const SolveResult r =
        Solve(matrix.requests[i],
              DeriveSeed(spec.seed, static_cast<std::uint64_t>(i)), 1);
    out.push_back({r.weight, r.forest});
  }
  return out;
}

std::vector<ExpectedCell> CellsOf(const JsonValue& response) {
  std::vector<ExpectedCell> out;
  const JsonValue* results = response.Find("results");
  if (results == nullptr) return out;
  for (const JsonValue& r : results->array) {
    ExpectedCell cell;
    cell.weight = static_cast<Weight>(r.GetNumber("weight", -1));
    for (const JsonValue& e : r.Find("edges")->array) {
      cell.edges.push_back(static_cast<EdgeId>(e.number));
    }
    out.push_back(std::move(cell));
  }
  return out;
}

void ExpectMatchesOneShot(const JsonValue& response, int variant) {
  ASSERT_TRUE(response.GetBool("ok", false))
      << response.GetString("error", "");
  const auto expected = OneShot(SpecText(variant), {"gw-moat"});
  const auto cells = CellsOf(response);
  ASSERT_EQ(cells.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(cells[i].weight, expected[i].weight) << variant;
    EXPECT_EQ(cells[i].edges, expected[i].edges) << variant;
  }
}

RouterOptions FastRouter(std::vector<int> ports) {
  RouterOptions options;
  for (const int p : ports) options.backends.push_back({"127.0.0.1", p});
  options.probe_interval_ms = 0;  // tests drive ProbeNow() deterministically
  options.retry = RetryPolicy{3, 1, 8};
  options.connect_timeout_ms = 2'000;
  return options;
}

TEST(RouterTest, RoutesSolvesBitIdenticallyAndServesHotHits) {
  Server s1((ServeOptions())), s2((ServeOptions()));
  s1.Start();
  s2.Start();
  Router router(FastRouter({s1.Port(), s2.Port()}));
  router.Start();

  ClientConnection conn("127.0.0.1", router.Port());
  EXPECT_TRUE(conn.RoundTrip(R"({"op":"ping"})").GetBool("router", false));

  for (int variant = 0; variant < 6; ++variant) {
    ExpectMatchesOneShot(conn.RoundTrip(SolveLine(variant)), variant);
  }
  // The same requests again: hot-cache hits, byte-identical payloads even
  // with a different id (the id is re-injected around the cached line).
  for (int variant = 0; variant < 6; ++variant) {
    const JsonValue v = conn.RoundTrip(SolveLine(variant, "rq-7"));
    EXPECT_EQ(v.GetString("id", ""), "rq-7");
    ExpectMatchesOneShot(v, variant);
  }
  const RouterCounters counters = router.Counters();
  EXPECT_EQ(counters.hot_hits, 6u);
  EXPECT_EQ(counters.shed, 0u);

  // Both backends took traffic (6 variants over a 2-node ring).
  std::uint64_t forwarded = 0;
  for (const RouterBackendStatus& b : router.Backends()) {
    forwarded += b.forwarded;
  }
  EXPECT_EQ(forwarded, 6u);

  // The router's stats op reports routing state, not solver state.
  const JsonValue stats = conn.RoundTrip(R"({"op":"stats"})");
  ASSERT_TRUE(stats.GetBool("router", false));
  EXPECT_DOUBLE_EQ(stats.GetNumber("backends_up", 0), 2.0);
  ASSERT_NE(stats.Find("backends"), nullptr);
  EXPECT_EQ(stats.Find("backends")->array.size(), 2u);
  const JsonValue* hot = stats.Find("hot_cache");
  ASSERT_NE(hot, nullptr);
  EXPECT_DOUBLE_EQ(hot->GetNumber("hits", -1), 6.0);
  EXPECT_DOUBLE_EQ(hot->GetNumber("misses", -1), 6.0);
  EXPECT_DOUBLE_EQ(hot->GetNumber("inserts", -1), 6.0);
  EXPECT_DOUBLE_EQ(hot->GetNumber("evictions", -1), 0.0);
  EXPECT_DOUBLE_EQ(hot->GetNumber("entries", -1), 6.0);
  EXPECT_DOUBLE_EQ(hot->GetNumber("capacity", -1), 512.0);

  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
}

TEST(RouterTest, StalePooledConnectionGetsAFreshPassWithoutBlame) {
  // The backend restarts on the same port between two requests, so the
  // router's pool holds a connection to the dead process. Reusing it
  // fails; that failure must buy one fresh connection, not a strike
  // against the backend — with no retries and failures_to_down 1, a
  // strike would shed the request and mark the backend down.
  auto first = std::make_unique<Server>(ServeOptions());
  first->Start();
  const int port = first->Port();
  RouterOptions options = FastRouter({port});
  options.retry.retries = 0;
  options.health.failures_to_down = 1;
  options.hot_cache_entries = 0;
  Router router(options);
  router.Start();

  ClientConnection conn("127.0.0.1", router.Port());
  ExpectMatchesOneShot(conn.RoundTrip(SolveLine(0)), 0);  // pools one fd
  first->RequestShutdown();
  ASSERT_EQ(first->Wait(), 0);
  first.reset();
  ServeOptions restarted;
  restarted.port = port;
  Server second(restarted);
  second.Start();

  ExpectMatchesOneShot(conn.RoundTrip(SolveLine(1)), 1);
  const RouterBackendStatus backend = router.Backends()[0];
  EXPECT_EQ(backend.failures, 0u);
  EXPECT_EQ(backend.times_down, 0u);
  EXPECT_TRUE(backend.up);
  EXPECT_EQ(router.Counters().retries, 0u);

  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
}

TEST(RouterTest, FailsOverWhenABackendDies) {
  Server s1((ServeOptions())), s2((ServeOptions()));
  s1.Start();
  s2.Start();
  RouterOptions options = FastRouter({s1.Port(), s2.Port()});
  options.hot_cache_entries = 0;  // force every request through a backend
  Router router(options);
  router.Start();

  ClientConnection conn("127.0.0.1", router.Port());
  for (int variant = 0; variant < 8; ++variant) {
    ExpectMatchesOneShot(conn.RoundTrip(SolveLine(variant)), variant);
  }

  // Kill whichever backend carried the most traffic (ring placement is
  // deterministic but not known a priori): its port stops accepting and
  // the router's pooled fds to it go stale.
  const auto before = router.Backends();
  ASSERT_EQ(before.size(), 2u);
  const std::size_t kill = before[0].forwarded >= before[1].forwarded ? 0 : 1;
  ASSERT_GT(before[kill].forwarded, 0u);
  Server& victim = kill == 0 ? s1 : s2;
  victim.RequestShutdown();
  ASSERT_EQ(victim.Wait(), 0);

  // Every request still succeeds bit-identically via failover; the dead
  // backend is marked down after its transport failure.
  for (int variant = 0; variant < 8; ++variant) {
    ExpectMatchesOneShot(conn.RoundTrip(SolveLine(variant)), variant);
  }
  const auto backends = router.Backends();
  EXPECT_FALSE(backends[kill].up);
  EXPECT_TRUE(backends[1 - kill].up);
  EXPECT_EQ(router.Counters().shed, 0u);
  EXPECT_GT(router.Counters().retries, 0u);
  EXPECT_GT(router.Counters().failovers, 0u);

  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
}

TEST(RouterTest, AllReplicasDownShedsStructuredUnavailable) {
  // Nothing listens on these ports: grab two ephemeral ports and free them.
  int p1 = 0, p2 = 0;
  {
    Server a((ServeOptions())), b((ServeOptions()));
    a.Start();
    b.Start();
    p1 = a.Port();
    p2 = b.Port();
    a.RequestShutdown();
    b.RequestShutdown();
    a.Wait();
    b.Wait();
  }
  Router router(FastRouter({p1, p2}));
  router.Start();

  ClientConnection conn("127.0.0.1", router.Port());
  const JsonValue v = conn.RoundTrip(SolveLine(0, "gone"));
  EXPECT_FALSE(v.GetBool("ok", true));
  EXPECT_EQ(v.GetString("error", ""), "unavailable");
  EXPECT_EQ(v.GetString("id", ""), "gone");
  EXPECT_DOUBLE_EQ(v.GetNumber("backends_down", 0), 2.0);
  EXPECT_DOUBLE_EQ(v.GetNumber("backends", 0), 2.0);
  EXPECT_GE(router.Counters().shed, 1u);
  for (const RouterBackendStatus& b : router.Backends()) {
    EXPECT_FALSE(b.up);
  }
  // The router itself stays alive and continues answering pings.
  EXPECT_TRUE(conn.RoundTrip(R"({"op":"ping"})").GetBool("pong", false));

  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
}

TEST(RouterTest, ReAdmissionRequiresConsecutiveProbeSuccesses) {
  // Reserve a port by starting and draining a server on it, then point the
  // router at the (now dead) port.
  int port = 0;
  {
    Server placeholder((ServeOptions()));
    placeholder.Start();
    port = placeholder.Port();
    placeholder.RequestShutdown();
    placeholder.Wait();
  }
  RouterOptions options = FastRouter({port});
  options.health.successes_to_up = 2;
  Router router(options);
  router.Start();

  ClientConnection conn("127.0.0.1", router.Port());
  EXPECT_EQ(conn.RoundTrip(SolveLine(0)).GetString("error", ""),
            "unavailable");
  ASSERT_FALSE(router.Backends()[0].up);

  // The backend comes back on the same port. One probe success is not
  // enough to re-admit...
  ServeOptions sopt;
  sopt.port = port;
  Server revived(sopt);
  revived.Start();
  router.ProbeNow();
  EXPECT_FALSE(router.Backends()[0].up);
  EXPECT_EQ(conn.RoundTrip(SolveLine(0)).GetString("error", ""),
            "unavailable");
  // ...the second consecutive success is.
  router.ProbeNow();
  EXPECT_TRUE(router.Backends()[0].up);
  ExpectMatchesOneShot(conn.RoundTrip(SolveLine(0)), 0);

  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
}

TEST(RouterTest, RetriesThroughDropTruncateAndDelayFaults) {
  Server backend((ServeOptions()));
  backend.Start();
  RouterOptions options = FastRouter({backend.Port()});
  options.hot_cache_entries = 0;
  // One backend: it must stay re-triable, not get blacklisted on the
  // first injected fault.
  options.health.failures_to_down = 100;
  Router router(options);
  router.Start();

  ClientConnection conn("127.0.0.1", router.Port());

  // Connection dropped without a reply before every 2nd response: absorbed
  // by the stale-pooled-fd retry or the attempt loop, never surfaced.
  backend.Fault().Configure("drop_every=2");
  for (int variant = 0; variant < 4; ++variant) {
    ExpectMatchesOneShot(conn.RoundTrip(SolveLine(variant)), variant);
  }

  // Half-written (truncated) reply: detected as malformed framing and
  // retried the same way.
  backend.Fault().Configure("truncate_every=2");
  for (int variant = 4; variant < 8; ++variant) {
    ExpectMatchesOneShot(conn.RoundTrip(SolveLine(variant)), variant);
  }
  EXPECT_TRUE(router.Backends()[0].up);
  EXPECT_EQ(router.Counters().shed, 0u);

  // Every reply truncated: the attempt budget runs dry and the request is
  // shed with the structured error — but the next healthy request recovers
  // in-band (failures_to_down was not reached, the backend is still up).
  backend.Fault().Configure("truncate_every=1");
  const JsonValue dead = conn.RoundTrip(SolveLine(8));
  EXPECT_FALSE(dead.GetBool("ok", true));
  EXPECT_EQ(dead.GetString("error", ""), "unavailable");
  EXPECT_GT(router.Counters().retries, 0u);
  EXPECT_GT(router.Backends()[0].failures, 0u);
  backend.Fault().Configure("");
  ExpectMatchesOneShot(conn.RoundTrip(SolveLine(8)), 8);

  // Delays within the upstream deadline pass through untouched.
  backend.Fault().Configure("delay_every=2, delay_ms=30");
  for (int variant = 9; variant < 11; ++variant) {
    ExpectMatchesOneShot(conn.RoundTrip(SolveLine(variant)), variant);
  }

  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
}

TEST(RouterTest, ChaosKillOneBackendMidLoadKeepsResponsesBitIdentical) {
  // The chaos contract: 3 shards, concurrent client load, one shard dies
  // mid-stream — zero failed responses, zero shed requests, and every
  // response byte-identical to a sequential one-shot solve.
  Server s1((ServeOptions())), s2((ServeOptions())), s3((ServeOptions()));
  s1.Start();
  s2.Start();
  s3.Start();
  Router router(FastRouter({s1.Port(), s2.Port(), s3.Port()}));
  router.Start();

  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  constexpr int kKillAfter = 8;  // responses per client before the kill
  std::atomic<int> done_before_kill{0};
  std::atomic<int> failures{0};
  std::vector<std::map<int, std::string>> raw(kClients);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        ClientConnection conn("127.0.0.1", router.Port());
        for (int i = 0; i < kPerClient; ++i) {
          const int variant = (c * kPerClient + i) % 12;
          conn.SendLine(SolveLine(variant));
          std::string response;
          if (!conn.RecvLine(response)) {
            ++failures;
            return;
          }
          raw[static_cast<std::size_t>(c)][variant] = response;
          if (i + 1 == kKillAfter) ++done_before_kill;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }

  // Kill one shard only after every client is mid-stream, so the kill
  // lands while requests are in flight. (Bail out on client failure so a
  // broken run cannot spin here forever.)
  while (done_before_kill.load() < kClients && failures.load() == 0) {
    std::this_thread::yield();
  }
  s2.RequestShutdown();
  s2.Wait();

  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(router.Counters().shed, 0u);

  std::map<int, ExpectedCell> expected;
  for (int c = 0; c < kClients; ++c) {
    for (const auto& [variant, response] : raw[static_cast<std::size_t>(c)]) {
      const JsonValue v = ParseJson(response);
      ASSERT_TRUE(v.GetBool("ok", false))
          << "client " << c << " variant " << variant << ": "
          << v.GetString("error", "");
      const auto it = expected.find(variant);
      if (it == expected.end()) {
        const auto one_shot = OneShot(SpecText(variant), {"gw-moat"});
        ASSERT_EQ(one_shot.size(), 1u);
        expected.emplace(variant, one_shot[0]);
      }
      const auto cells = CellsOf(v);
      ASSERT_EQ(cells.size(), 1u);
      EXPECT_EQ(cells[0].weight, expected.at(variant).weight)
          << "variant " << variant;
      EXPECT_EQ(cells[0].edges, expected.at(variant).edges)
          << "variant " << variant;
    }
  }

  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
}

TEST(RouterTest, DrainsCleanlyWhileProbesAreInFlight) {
  Server backend((ServeOptions()));
  backend.Start();
  RouterOptions options = FastRouter({backend.Port()});
  options.probe_interval_ms = 1;  // probe as hot as possible
  Router router(options);
  router.Start();

  ClientConnection conn("127.0.0.1", router.Port());
  ExpectMatchesOneShot(conn.RoundTrip(SolveLine(0)), 0);
  // Let several probe rounds overlap live traffic, then drain: Wait() must
  // stop the probe thread mid-cadence and return 0.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
  EXPECT_GT(router.Backends()[0].probes, 0u);
}

TEST(RouterTest, ForwardsProtocolErrorsWithoutBlamingBackends) {
  Server backend((ServeOptions()));
  backend.Start();
  Router router(FastRouter({backend.Port()}));
  router.Start();

  // A valid JSON error reply (unknown solver) is an answer, not a
  // transport failure: forwarded verbatim, backend stays up, no retries.
  ClientConnection conn("127.0.0.1", router.Port());
  std::ostringstream req;
  req << R"({"op":"solve","spec":)" << EscapeForJson(kWireSpec)
      << R"(,"solvers":["nope"]})";
  const JsonValue v = conn.RoundTrip(req.str());
  EXPECT_FALSE(v.GetBool("ok", true));
  EXPECT_FALSE(v.GetString("error", "").empty());
  EXPECT_TRUE(router.Backends()[0].up);
  EXPECT_EQ(router.Counters().retries, 0u);
  // Error replies are never hot-cached.
  EXPECT_EQ(router.HotCacheCounters().inserts, 0u);

  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
}

TEST(RouterTest, ReviseLandsOnTheBackendHoldingItsBase) {
  // Solve then revise through a 3-shard router: the affinity rewrite must
  // place the revise on the shard that cached the base (warm + base_hit),
  // and the response must be byte-comparable to the same solve + revise
  // against a single direct server.
  Server s1((ServeOptions())), s2((ServeOptions())), s3((ServeOptions()));
  s1.Start();
  s2.Start();
  s3.Start();
  Router router(FastRouter({s1.Port(), s2.Port(), s3.Port()}));
  router.Start();

  // 8 terminals keep a 2-edit delta warm-eligible at the default 0.25
  // fraction (limit = 2).
  const std::string spec =
      "seed 9\n"
      "graph 12\n"
      "edge 0 1 2\nedge 1 2 3\nedge 2 3 1\nedge 3 4 4\nedge 4 5 1\n"
      "edge 5 6 2\nedge 6 7 3\nedge 7 8 1\nedge 8 9 2\nedge 9 10 4\n"
      "edge 10 11 1\nedge 0 11 2\n"
      "ic ring\n"
      "terminal 0 1\nterminal 3 1\nterminal 1 2\nterminal 5 2\n"
      "terminal 6 3\nterminal 9 3\nterminal 2 4\nterminal 8 4\n";
  const std::string solve_line = R"({"op":"solve","spec":)" +
                                 EscapeForJson(spec) +
                                 R"(,"solvers":["local-search"]})";
  const auto revise_line = [&](const std::string& base_key) {
    return R"({"op":"revise","spec":)" + EscapeForJson(spec) +
           R"(,"solvers":["local-search"],"base":")" + base_key +
           R"(","delta":{"add_terminals":[[4,5],[10,5]]}})";
  };

  ClientConnection conn("127.0.0.1", router.Port());
  const JsonValue solve = conn.RoundTrip(solve_line);
  ASSERT_TRUE(solve.GetBool("ok", false)) << solve.GetString("error", "");
  const std::string base_key =
      solve.Find("results")->array[0].GetString("key", "");
  ASSERT_EQ(base_key.size(), 32u);

  const JsonValue revise = conn.RoundTrip(revise_line(base_key));
  ASSERT_TRUE(revise.GetBool("ok", false)) << revise.GetString("error", "");
  EXPECT_TRUE(revise.GetBool("base_hit", false));
  EXPECT_TRUE(revise.GetBool("warm", false));
  EXPECT_TRUE(revise.Find("results")->array[0].GetBool("feasible", false));

  // Same flow against a direct server: identical weight/edges/key.
  Server direct((ServeOptions()));
  direct.Start();
  ClientConnection direct_conn("127.0.0.1", direct.Port());
  const JsonValue want_solve = direct_conn.RoundTrip(solve_line);
  ASSERT_TRUE(want_solve.GetBool("ok", false));
  const std::string want_key =
      want_solve.Find("results")->array[0].GetString("key", "");
  EXPECT_EQ(base_key, want_key);
  const JsonValue want = direct_conn.RoundTrip(revise_line(want_key));
  ASSERT_TRUE(want.GetBool("ok", false)) << want.GetString("error", "");
  ASSERT_TRUE(want.GetBool("warm", false));
  const auto got_cells = CellsOf(revise);
  const auto want_cells = CellsOf(want);
  ASSERT_EQ(got_cells.size(), 1u);
  ASSERT_EQ(want_cells.size(), 1u);
  EXPECT_EQ(got_cells[0].weight, want_cells[0].weight);
  EXPECT_EQ(got_cells[0].edges, want_cells[0].edges);
  EXPECT_EQ(revise.GetString("key", ""), want.GetString("key", ""));

  direct.RequestShutdown();
  EXPECT_EQ(direct.Wait(), 0);
  router.RequestShutdown();
  EXPECT_EQ(router.Wait(), 0);
}

}  // namespace
}  // namespace dsf
