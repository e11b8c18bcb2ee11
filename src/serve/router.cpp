#include "serve/router.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/text.hpp"
#include "serve/protocol.hpp"

namespace dsf {

namespace {

// Prefixes the (id-stripped, validated-object) response line with the
// request's id, restoring the protocol's echo contract for cached and
// forwarded replies alike.
std::string WithId(const std::string& response, const std::string& id) {
  if (id.empty()) return response;
  std::ostringstream os;
  os << "{\"id\":";
  {
    JsonWriter json(os);
    json.String(id);
  }
  if (response.size() > 2) os << ',';
  os << std::string_view(response).substr(1);
  return os.str();
}

void WriteCanonicalValue(std::ostream& os, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      os << "null";
      return;
    case JsonValue::Kind::kBool:
      os << (v.boolean ? "true" : "false");
      return;
    case JsonValue::Kind::kNumber:
      // The raw literal as written: 1e3 vs 1000 stay distinct (a false
      // split costs a cache miss; collapsing 2^64-scale seeds through a
      // double would cost correctness).
      os << v.string;
      return;
    case JsonValue::Kind::kString: {
      JsonWriter json(os);
      json.String(v.string);
      return;
    }
    case JsonValue::Kind::kArray: {
      os << '[';
      bool first = true;
      for (const JsonValue& e : v.array) {
        if (!first) os << ',';
        first = false;
        WriteCanonicalValue(os, e);
      }
      os << ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      std::vector<const std::pair<std::string, JsonValue>*> members;
      members.reserve(v.object.size());
      for (const auto& m : v.object) members.push_back(&m);
      std::sort(members.begin(), members.end(),
                [](const auto* a, const auto* b) { return a->first < b->first; });
      os << '{';
      bool first = true;
      for (const auto* m : members) {
        if (!first) os << ',';
        first = false;
        {
          JsonWriter json(os);
          json.String(m->first);
        }
        os << ':';
        WriteCanonicalValue(os, m->second);
      }
      os << '}';
      return;
    }
  }
}

}  // namespace

BackendSpec ParseBackendSpec(const std::string& text) {
  BackendSpec spec;
  std::string port_text = text;
  const std::size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    spec.host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
    if (spec.host.empty()) spec.host = "127.0.0.1";
  }
  const auto port = ParseNumber<int>(port_text);
  if (!port || *port < 1 || *port > 65535) {
    throw std::runtime_error("invalid backend '" + text +
                             "' (want HOST:PORT or PORT)");
  }
  spec.port = *port;
  return spec;
}

// --- HashRing ----------------------------------------------------------------

HashRing::HashRing(std::size_t backend_count, int replicas_per_backend)
    : backend_count_(backend_count) {
  const int replicas = std::max(replicas_per_backend, 1);
  ring_.reserve(backend_count * static_cast<std::size_t>(replicas));
  for (std::size_t b = 0; b < backend_count; ++b) {
    for (int r = 0; r < replicas; ++r) {
      const std::uint64_t point =
          Mix64(HashCombine(Mix64(b + 1), static_cast<std::uint64_t>(r)));
      ring_.emplace_back(point, static_cast<int>(b));
    }
  }
  // Tie-break by backend index: point collisions (vanishingly rare) must
  // still order deterministically.
  std::sort(ring_.begin(), ring_.end());
}

int HashRing::PrimaryBackend(std::uint64_t point) const {
  if (ring_.empty()) return -1;
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<std::uint64_t, int>& node, std::uint64_t p) {
        return node.first < p;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::vector<int> HashRing::PreferenceOrder(std::uint64_t point) const {
  std::vector<int> order;
  if (ring_.empty()) return order;
  order.reserve(backend_count_);
  std::vector<bool> seen(backend_count_, false);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<std::uint64_t, int>& node, std::uint64_t p) {
        return node.first < p;
      });
  for (std::size_t walked = 0;
       walked < ring_.size() && order.size() < backend_count_; ++walked) {
    if (it == ring_.end()) it = ring_.begin();
    const int b = it->second;
    if (!seen[static_cast<std::size_t>(b)]) {
      seen[static_cast<std::size_t>(b)] = true;
      order.push_back(b);
    }
    ++it;
  }
  return order;
}

// --- HealthMachine -----------------------------------------------------------

bool HealthMachine::RecordFailure() {
  ++consecutive_failures_;
  consecutive_successes_ = 0;
  if (up_ && consecutive_failures_ >= std::max(policy_.failures_to_down, 1)) {
    up_ = false;
    return true;
  }
  return false;
}

bool HealthMachine::RecordProbeSuccess() {
  consecutive_failures_ = 0;
  ++consecutive_successes_;
  if (!up_ && consecutive_successes_ >= std::max(policy_.successes_to_up, 1)) {
    up_ = true;
    return true;
  }
  return false;
}

void HealthMachine::RecordSuccess() {
  if (up_) {
    consecutive_failures_ = 0;
    ++consecutive_successes_;
  }
}

// --- canonical request keying ------------------------------------------------

std::string CanonicalRequestText(const JsonValue& request) {
  std::ostringstream os;
  std::vector<const std::pair<std::string, JsonValue>*> members;
  members.reserve(request.object.size());
  for (const auto& m : request.object) {
    if (m.first == "id") continue;
    members.push_back(&m);
  }
  std::sort(members.begin(), members.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  os << '{';
  bool first = true;
  for (const auto* m : members) {
    if (!first) os << ',';
    first = false;
    {
      JsonWriter json(os);
      json.String(m->first);
    }
    os << ':';
    WriteCanonicalValue(os, m->second);
  }
  os << '}';
  return os.str();
}

CacheKey RouterRequestKey(std::string_view canonical_text) {
  FnvLanes<2> h(Fnv1a::kOffset, kFnvSecondOffset);
  h.Bytes(canonical_text);
  return {h.MixedDigest(0), h.Digest(1)};
}

std::string RouteAffinityText(const JsonValue& request) {
  if (request.GetString("op", "") != "revise") {
    return CanonicalRequestText(request);
  }
  JsonValue solve_like = request;
  std::vector<std::pair<std::string, JsonValue>> kept;
  kept.reserve(solve_like.object.size());
  for (auto& m : solve_like.object) {
    if (m.first == "base" || m.first == "delta" || m.first == "mode") continue;
    if (m.first == "op") m.second.string = "solve";
    kept.push_back(std::move(m));
  }
  solve_like.object = std::move(kept);
  return CanonicalRequestText(solve_like);
}

// --- Router ------------------------------------------------------------------

Router::Router(RouterOptions options)
    : LineEndpoint(EndpointOptionsOf(options)),
      options_(std::move(options)),
      ring_(options_.backends.size(), options_.ring_replicas),
      hot_cache_(options_.hot_cache_entries, /*shards=*/1) {
  if (options_.backends.empty()) {
    throw std::runtime_error("shard router needs at least one backend");
  }
  BackendState initial;
  initial.machine = HealthMachine(options_.health);
  backends_.assign(options_.backends.size(), initial);
  pools_.resize(options_.backends.size());
  if (!options_.fault_spec.empty()) Fault().Configure(options_.fault_spec);
}

Router::~Router() {
  Shutdown();
  StopProbe();
  for (std::size_t b = 0; b < pools_.size(); ++b) {
    FlushPool(static_cast<int>(b));
  }
}

void Router::Start() {
  LineEndpoint::Start();
  started_ = std::chrono::steady_clock::now();
  if (options_.probe_interval_ms > 0) {
    probe_thread_ = std::thread([this] { ProbeLoop(); });
  }
}

void Router::OnDrained() {
  StopProbe();
  for (std::size_t b = 0; b < pools_.size(); ++b) {
    FlushPool(static_cast<int>(b));
  }
}

void Router::StopProbe() noexcept {
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
}

void Router::ProbeLoop() {
  std::unique_lock<std::mutex> lock(probe_mutex_);
  while (!probe_stop_) {
    lock.unlock();
    ProbeNow();
    lock.lock();
    probe_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.probe_interval_ms),
                       [this] { return probe_stop_; });
  }
}

void Router::ProbeNow() {
  const int timeout = options_.probe_timeout_ms;
  const ConnectionLimits limits{timeout, timeout, timeout,
                                options_.max_line_bytes};
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    const BackendSpec& spec = options_.backends[b];
    bool ok = false;
    try {
      ClientConnection conn(spec.host, spec.port, limits);
      const JsonValue reply = conn.RoundTrip("{\"op\":\"ping\"}");
      ok = reply.GetBool("pong", false);
    } catch (const std::exception&) {
      ok = false;
    }
    RecordProbe(static_cast<int>(b), ok);
  }
}

void Router::RecordProbe(int backend, bool ok) {
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    BackendState& state = backends_[static_cast<std::size_t>(backend)];
    ++state.probes;
    if (ok) {
      state.machine.RecordProbeSuccess();
    } else {
      ++state.probe_failures;
      if (state.machine.RecordFailure()) {
        ++state.times_down;
        flush = true;
      }
    }
  }
  // Flushing outside the health lock: Close() is a syscall.
  if (flush) FlushPool(backend);
}

void Router::RecordBackendFailure(int backend) {
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    BackendState& state = backends_[static_cast<std::size_t>(backend)];
    ++state.failures;
    if (state.machine.RecordFailure()) {
      ++state.times_down;
      flush = true;
    }
  }
  if (flush) FlushPool(backend);
}

void Router::RecordBackendSuccess(int backend) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  BackendState& state = backends_[static_cast<std::size_t>(backend)];
  ++state.forwarded;
  state.machine.RecordSuccess();
}

void Router::FlushPool(int backend) {
  std::vector<std::unique_ptr<ClientConnection>> stale;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    stale.swap(pools_[static_cast<std::size_t>(backend)]);
  }
  // ~ClientConnection closes each fd, outside the pool lock.
}

bool Router::ForwardTo(int backend, const std::string& line, std::string& raw,
                       bool& ok_out) {
  const auto b = static_cast<std::size_t>(backend);
  const BackendSpec& spec = options_.backends[b];
  auto& pool = pools_[b];
  // Pass 0 may reuse a pooled connection; a reused one that fails gets one
  // fresh-connection pass before the backend is blamed — the pool can hold
  // sockets from before a backend restart, and a stale fd must not re-mark
  // a recovered backend down.
  for (int pass = 0; pass < 2; ++pass) {
    std::unique_ptr<ClientConnection> conn;
    if (pass == 0) {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      if (!pool.empty()) {
        conn = std::move(pool.back());
        pool.pop_back();
      }
    }
    const bool reused = conn != nullptr;
    try {
      if (!reused) {
        conn = std::make_unique<ClientConnection>(
            spec.host, spec.port,
            ConnectionLimits{options_.connect_timeout_ms,
                             options_.upstream_send_timeout_ms,
                             options_.upstream_recv_timeout_ms,
                             options_.max_line_bytes});
      }
      conn->SendLine(line);
      if (!conn->RecvLine(raw)) {
        throw std::runtime_error("upstream closed mid-request");
      }
      // Strict framing: the reply must parse as one compact JSON object
      // (anything else is a byzantine backend and counts as a failure).
      const JsonValue reply = ParseJson(raw);
      if (!reply.IsObject() || raw.empty() || raw.front() != '{') {
        throw std::runtime_error("malformed upstream reply");
      }
      ok_out = reply.GetBool("ok", false);
      {
        std::lock_guard<std::mutex> lock(pool_mutex_);
        pool.push_back(std::move(conn));
      }
      RecordBackendSuccess(backend);
      return true;
    } catch (const std::exception&) {
      if (!reused) break;
    }
  }
  RecordBackendFailure(backend);
  return false;
}

int Router::FirstUpBackend(const std::vector<int>& order,
                           int& up_count) const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  up_count = 0;
  int first = -1;
  for (const BackendState& state : backends_) {
    if (state.machine.IsUp()) ++up_count;
  }
  for (const int b : order) {
    if (backends_[static_cast<std::size_t>(b)].machine.IsUp()) {
      first = b;
      break;
    }
  }
  return first;
}

std::string Router::RouteRequest(const JsonValue& request,
                                 const std::string& id) {
  const std::string canonical = CanonicalRequestText(request);
  const CacheKey key = RouterRequestKey(canonical);

  if (std::optional<std::string> hit = hot_cache_.Lookup(key)) {
    hot_hits_.fetch_add(1, std::memory_order_relaxed);
    return WithId(*hit, id);
  }

  // The hot cache keys on the full canonical text (distinct revises never
  // alias), but ring placement uses the affinity text so a revise walks
  // the ring from the same point as its base solve.
  const CacheKey ring_key = RouterRequestKey(RouteAffinityText(request));
  const std::vector<int> order = ring_.PreferenceOrder(ring_key.lo);
  const int total_attempts = std::max(options_.retry.retries, 0) + 1;
  int last_backend = -1;
  for (int attempt = 0; attempt < total_attempts; ++attempt) {
    int up_count = 0;
    const int backend = FirstUpBackend(order, up_count);
    if (backend < 0) break;  // every replica is down
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      const int delay = BackoffDelayMs(
          options_.retry, attempt - 1,
          key.lo ^ Mix64(static_cast<std::uint64_t>(backend) + 1));
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }
    if (last_backend >= 0 && backend != last_backend) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
    }
    last_backend = backend;

    std::string raw;
    bool ok = false;
    if (ForwardTo(backend, canonical, raw, ok)) {
      // Valid protocol-level errors ("overloaded", bad spec) are forwarded
      // verbatim and never cached; only ok replies are deterministic
      // functions of the request.
      if (ok) hot_cache_.Insert(key, raw);
      return WithId(raw, id);
    }
  }

  shed_.fetch_add(1, std::memory_order_relaxed);
  int up_count = 0;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    for (const BackendState& state : backends_) {
      if (state.machine.IsUp()) ++up_count;
    }
  }
  const int total = static_cast<int>(backends_.size());
  return ErrorReply(id, "unavailable",
                    {{"backends_down", total - up_count}, {"backends", total}});
}

std::string Router::StatsResponse(const std::string& id) {
  const std::vector<RouterBackendStatus> statuses = Backends();
  const RouterCounters counters = Counters();
  const CacheCounters cache = hot_cache_.Counters();
  const auto uptime = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started_);

  std::ostringstream os;
  JsonWriter json(os);
  BeginReply(json, id, true);
  json.Key("router");
  json.Bool(true);
  json.Key("uptime_ms");
  json.Int(static_cast<long long>(uptime.count()));
  int up = 0;
  for (const RouterBackendStatus& s : statuses) {
    if (s.up) ++up;
  }
  json.Key("backends_up");
  json.Int(up);
  json.Key("backends");
  json.BeginArray();
  for (const RouterBackendStatus& s : statuses) {
    json.BeginObject();
    json.Key("host");
    json.String(s.spec.host);
    json.Key("port");
    json.Int(s.spec.port);
    json.Key("up");
    json.Bool(s.up);
    json.Key("consecutive_failures");
    json.Int(s.consecutive_failures);
    json.Key("consecutive_successes");
    json.Int(s.consecutive_successes);
    json.Key("forwarded");
    json.UInt(s.forwarded);
    json.Key("failures");
    json.UInt(s.failures);
    json.Key("probes");
    json.UInt(s.probes);
    json.Key("probe_failures");
    json.UInt(s.probe_failures);
    json.Key("times_down");
    json.UInt(s.times_down);
    json.EndObject();
  }
  json.EndArray();
  json.Key("counters");
  json.BeginObject();
  json.Key("requests");
  json.UInt(counters.requests);
  json.Key("hot_hits");
  json.UInt(counters.hot_hits);
  json.Key("retries");
  json.UInt(counters.retries);
  json.Key("failovers");
  json.UInt(counters.failovers);
  json.Key("shed");
  json.UInt(counters.shed);
  json.EndObject();
  json.Key("hot_cache");
  WriteCacheCounters(json, cache);
  json.EndObject();
  return os.str();
}

std::string Router::HandleLine(std::string_view line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  std::string id;
  try {
    const JsonValue request = ParseJson(line);
    if (!request.IsObject()) {
      return ErrorReply("", "request must be a JSON object");
    }
    id = request.GetString("id", "");
    const std::string op = request.GetString("op", "");
    if (op == "ping") {
      // Answered locally: this is how peers (and the router's own users)
      // probe the router itself.
      std::ostringstream os;
      JsonWriter json(os);
      BeginReply(json, id, true);
      json.Key("pong");
      json.Bool(true);
      json.Key("router");
      json.Bool(true);
      json.EndObject();
      return os.str();
    }
    if (op == "stats") return StatsResponse(id);
    // Everything else — solve today, future ops tomorrow — is routed; the
    // backend owns the protocol surface.
    return RouteRequest(request, id);
  } catch (const std::exception& e) {
    return ErrorReply(id, e.what());
  }
}

std::vector<RouterBackendStatus> Router::Backends() const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  std::vector<RouterBackendStatus> out;
  out.reserve(backends_.size());
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    const BackendState& state = backends_[b];
    RouterBackendStatus s;
    s.spec = options_.backends[b];
    s.up = state.machine.IsUp();
    s.consecutive_failures = state.machine.ConsecutiveFailures();
    s.consecutive_successes = state.machine.ConsecutiveSuccesses();
    s.forwarded = state.forwarded;
    s.failures = state.failures;
    s.probes = state.probes;
    s.probe_failures = state.probe_failures;
    s.times_down = state.times_down;
    out.push_back(std::move(s));
  }
  return out;
}

RouterCounters Router::Counters() const {
  RouterCounters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  c.retries = retries_.load(std::memory_order_relaxed);
  c.failovers = failovers_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  return c;
}

// --- CLI entry ---------------------------------------------------------------

int RunShardRouter(const RouterOptions& options) {
  Router router(options);
  router.Start();
  return router.RunUntilDrained(
      "shard-router",
      "\"backends\":" + std::to_string(options.backends.size()));
}

}  // namespace dsf
