#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "cli/json.hpp"

namespace perfbench {

namespace {

std::size_t Rank(std::size_t n, double p) {
  // ceil(p * n) with a guard against p * n landing a hair above an integer.
  const double exact = p * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

long long IntField(const dsf::JsonValue& v, std::string_view key) {
  const dsf::JsonValue* f = v.Find(key);
  return f != nullptr && f->IsNumber() ? std::stoll(f->string) : 0;
}

}  // namespace

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = Rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

Windowed WindowedMedians(const std::vector<double>& done_s, const std::vector<double>& latency,
                         double run_seconds, int windows) {
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(windows));
  const double width = run_seconds / windows;
  for (std::size_t i = 0; i < done_s.size() && i < latency.size(); ++i) {
    const auto w = std::min<std::size_t>(static_cast<std::size_t>(done_s[i] / width),
                                         slices.size() - 1);
    slices[w].push_back(latency[i]);
  }
  std::vector<double> p50, rate;
  for (const std::vector<double>& s : slices) {
    p50.push_back(NearestRank(s, 0.5));
    rate.push_back(static_cast<double>(s.size()) / width);
  }
  return {NearestRank(p50, 0.5), NearestRank(rate, 0.5)};
}

Response ClassifyResponse(std::string_view line, std::string_view expect_key) {
  Response r;
  dsf::JsonValue doc;
  try {
    doc = dsf::ParseJson(line);
  } catch (const std::exception& e) {
    r.error = std::string("unparseable response: ") + e.what();
    return r;
  }
  if (!doc.IsObject()) {
    r.error = "response is not an object";
    return r;
  }
  if (!doc.GetBool("ok", false)) {
    r.error = doc.GetString("error", "ok:false");
    r.outcome = r.error == "overloaded" || r.error == "unavailable" ? Outcome::kRefused
                                                                    : Outcome::kError;
    return r;
  }
  r.wall_ms = doc.GetNumber("wall_ms", 0.0);
  r.warm = doc.GetBool("warm", false);
  r.key = doc.GetString("key", "");
  const dsf::JsonValue* results = doc.Find("results");
  if (results == nullptr || !results->IsArray() || results->array.empty()) {
    r.error = "ok response without results";
    return r;
  }
  r.outcome = Outcome::kOk;
  for (const dsf::JsonValue& u : results->array) {
    UnitResult unit;
    unit.solver = u.GetString("solver", "");
    unit.feasible = u.GetBool("feasible", false);
    unit.cached = u.GetBool("cached", false);
    unit.weight = IntField(u, "weight");
    unit.rounds = static_cast<long>(IntField(u, "rounds"));
    unit.wall_ms = u.GetNumber("wall_ms", 0.0);
    unit.key = u.GetString("key", "");
    if (const dsf::JsonValue* edges = u.Find("edges"); edges != nullptr && edges->IsArray()) {
      for (const dsf::JsonValue& e : edges->array) unit.edges.push_back(std::stoll(e.string));
    }
    if (!unit.feasible || u.GetBool("cancelled", false)) r.outcome = Outcome::kInfeasible;
    r.units.push_back(std::move(unit));
  }
  if (r.outcome == Outcome::kOk && !expect_key.empty()) {
    const std::string& got = r.key.empty() ? r.units.front().key : r.key;
    if (got != expect_key) {
      r.outcome = Outcome::kMismatch;
      r.error = "canonical key " + got + " != expected " + std::string(expect_key);
    }
  }
  return r;
}

void Tally::Add(Outcome o) {
  ++attempted;
  if (o == Outcome::kOk) {
    ++ok;
    return;
  }
  if (o == Outcome::kRefused) ++refused;
  ++failed;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  ok += other.ok;
  refused += other.refused;
  failed += other.failed;
}

double Tally::ErrorRate() const {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

std::string StripId(std::string_view line) {
  constexpr std::string_view kId = "\"id\":\"";
  const std::size_t at = line.find(kId);
  if (at == std::string_view::npos) return std::string(line);
  std::size_t end = line.find('"', at + kId.size());
  if (end == std::string_view::npos) return std::string(line);
  ++end;
  if (end < line.size() && line[end] == ',') ++end;
  std::string out(line.substr(0, at));
  out.append(line.substr(end));
  return out;
}

}  // namespace perfbench
