#include "suite/baseline.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "cli/json.hpp"
#include "common/text.hpp"

namespace dsf {

namespace {

[[noreturn]] void Fail(const std::string& origin, const std::string& what) {
  throw std::runtime_error(origin + ": " + what);
}

const JsonValue& Need(const JsonValue& obj, const char* key,
                      const std::string& origin) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) Fail(origin, std::string("missing field '") + key + "'");
  return *v;
}

// Integers come back from the raw literal, not the double: a 64-bit cost
// above 2^53 must not collapse onto a neighbour through the double detour.
// A literal outside [lo, hi] is an error that names the field, never a
// clamp or a wrap.
long long NeedInt(const JsonValue& obj, const char* key,
                  const std::string& origin,
                  long long lo = std::numeric_limits<long long>::min(),
                  long long hi = std::numeric_limits<long long>::max()) {
  const JsonValue& v = Need(obj, key, origin);
  if (!v.IsNumber()) Fail(origin, std::string("'") + key + "' must be a number");
  const auto value = ParseNumber<long long>(v.string);
  if (!value || *value < lo || *value > hi) {
    Fail(origin, std::string("'") + key + "' must be an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return *value;
}

std::uint64_t NeedU64(const JsonValue& obj, const char* key,
                      const std::string& origin) {
  const JsonValue& v = Need(obj, key, origin);
  if (!v.IsNumber()) Fail(origin, std::string("'") + key + "' must be a number");
  const auto value = ParseNumber<std::uint64_t>(v.string);
  if (!value) {
    Fail(origin, std::string("'") + key +
                     "' must be an integer in [0, 2^64 - 1]");
  }
  return *value;
}

double NeedDouble(const JsonValue& obj, const char* key,
                  const std::string& origin) {
  const JsonValue& v = Need(obj, key, origin);
  if (!v.IsNumber()) Fail(origin, std::string("'") + key + "' must be a number");
  return v.number;
}

bool NeedBool(const JsonValue& obj, const char* key,
              const std::string& origin) {
  const JsonValue& v = Need(obj, key, origin);
  if (!v.IsBool()) Fail(origin, std::string("'") + key + "' must be a bool");
  return v.boolean;
}

std::string NeedString(const JsonValue& obj, const char* key,
                       const std::string& origin) {
  const JsonValue& v = Need(obj, key, origin);
  if (!v.IsString()) {
    Fail(origin, std::string("'") + key + "' must be a string");
  }
  return v.string;
}

std::vector<std::string> NeedStringArray(const JsonValue& obj, const char* key,
                                         const std::string& origin) {
  const JsonValue& v = Need(obj, key, origin);
  if (!v.IsArray()) Fail(origin, std::string("'") + key + "' must be an array");
  std::vector<std::string> out;
  out.reserve(v.array.size());
  for (const JsonValue& item : v.array) {
    if (!item.IsString()) {
      Fail(origin, std::string("'") + key + "' must hold strings");
    }
    out.push_back(item.string);
  }
  return out;
}

}  // namespace

void WriteSuiteBaseline(std::ostream& out, const SuiteBaseline& baseline) {
  JsonWriter w(out);
  w.BeginObject();
  w.Key("dsf_suite_version");
  w.Int(kSuiteBaselineVersion);

  w.Key("context");
  w.BeginObject();
  w.Key("manifest");
  w.String(baseline.manifest);
  w.Key("manifest_digest");
  w.String(baseline.manifest_digest);
  w.Key("seed");
  w.UInt(baseline.seed);
  w.Key("timing_reps");
  w.Int(baseline.timing_reps);
  w.Key("latency_band");
  w.DoubleExact(baseline.latency_band);
  w.Key("latency_floor_ms");
  w.DoubleExact(baseline.latency_floor_ms);
  w.Key("solvers");
  w.BeginArray();
  for (const std::string& solver : baseline.solvers) w.String(solver);
  w.EndArray();
  w.Key("instances");
  w.Int(baseline.solvers.empty()
            ? 0
            : static_cast<long long>(baseline.cells.size() /
                                     baseline.solvers.size()));
  w.Key("skipped_sources");
  w.BeginArray();
  for (const std::string& path : baseline.skipped_sources) w.String(path);
  w.EndArray();
  w.EndObject();

  w.Key("cells");
  w.BeginArray();
  for (const SuiteCell& cell : baseline.cells) {
    w.BeginObject();
    w.Key("solver");
    w.String(cell.solver);
    w.Key("case");
    w.String(cell.case_name);
    w.Key("instance");
    w.String(cell.instance);
    w.Key("source");
    w.String(cell.source);
    w.Key("n");
    w.Int(cell.n);
    w.Key("m");
    w.Int(cell.m);
    w.Key("quality");
    w.BeginObject();
    w.Key("cost");
    w.Int(cell.cost);
    w.Key("feasible");
    w.Bool(cell.feasible);
    w.Key("dual_lb_fixed");
    w.Int(cell.dual_lb_fixed);
    w.Key("ratio");
    w.DoubleExact(cell.ratio);
    w.Key("rounds");
    w.Int(cell.rounds);
    w.Key("messages");
    w.Int(cell.messages);
    w.EndObject();
    w.Key("timing");
    w.BeginObject();
    w.Key("p50_ms");
    w.DoubleExact(cell.p50_ms);
    w.Key("p95_ms");
    w.DoubleExact(cell.p95_ms);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
}

std::string SuiteBaselineToJson(const SuiteBaseline& baseline) {
  std::ostringstream os;
  WriteSuiteBaseline(os, baseline);
  return os.str();
}

SuiteBaseline ParseSuiteBaseline(const std::string& text,
                                 const std::string& origin) {
  JsonValue doc;
  try {
    doc = ParseJson(text);
  } catch (const std::runtime_error& e) {
    Fail(origin, e.what());
  }
  if (!doc.IsObject()) Fail(origin, "baseline must be a JSON object");
  const long long version = NeedInt(doc, "dsf_suite_version", origin);
  if (version != kSuiteBaselineVersion) {
    Fail(origin, "unsupported dsf_suite_version " + std::to_string(version) +
                     " (expected " + std::to_string(kSuiteBaselineVersion) +
                     ")");
  }

  SuiteBaseline out;
  const JsonValue& ctx = Need(doc, "context", origin);
  if (!ctx.IsObject()) Fail(origin, "'context' must be an object");
  out.manifest = NeedString(ctx, "manifest", origin);
  out.manifest_digest = NeedString(ctx, "manifest_digest", origin);
  out.seed = NeedU64(ctx, "seed", origin);
  out.timing_reps = static_cast<int>(
      NeedInt(ctx, "timing_reps", origin, 1, std::numeric_limits<int>::max()));
  out.latency_band = NeedDouble(ctx, "latency_band", origin);
  out.latency_floor_ms = NeedDouble(ctx, "latency_floor_ms", origin);
  out.solvers = NeedStringArray(ctx, "solvers", origin);
  out.skipped_sources = NeedStringArray(ctx, "skipped_sources", origin);

  const JsonValue& cells = Need(doc, "cells", origin);
  if (!cells.IsArray()) Fail(origin, "'cells' must be an array");
  out.cells.reserve(cells.array.size());
  for (const JsonValue& item : cells.array) {
    if (!item.IsObject()) Fail(origin, "each cell must be an object");
    SuiteCell cell;
    cell.solver = NeedString(item, "solver", origin);
    cell.case_name = NeedString(item, "case", origin);
    cell.instance = NeedString(item, "instance", origin);
    cell.source = NeedString(item, "source", origin);
    cell.n = NeedInt(item, "n", origin);
    cell.m = NeedInt(item, "m", origin);
    const JsonValue& quality = Need(item, "quality", origin);
    if (!quality.IsObject()) Fail(origin, "'quality' must be an object");
    cell.cost = NeedInt(quality, "cost", origin);
    cell.feasible = NeedBool(quality, "feasible", origin);
    cell.dual_lb_fixed = NeedInt(quality, "dual_lb_fixed", origin);
    cell.ratio = NeedDouble(quality, "ratio", origin);
    cell.rounds = NeedInt(quality, "rounds", origin);
    cell.messages = NeedInt(quality, "messages", origin);
    const JsonValue& timing = Need(item, "timing", origin);
    if (!timing.IsObject()) Fail(origin, "'timing' must be an object");
    cell.p50_ms = NeedDouble(timing, "p50_ms", origin);
    cell.p95_ms = NeedDouble(timing, "p95_ms", origin);
    out.cells.push_back(std::move(cell));
  }
  return out;
}

SuiteBaseline LoadSuiteBaseline(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in) throw std::runtime_error("cannot read suite baseline: " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return ParseSuiteBaseline(content.str(), path);
}

void SaveSuiteBaseline(const std::string& path, const SuiteBaseline& baseline) {
  std::ofstream out(path, std::ios::out | std::ios::binary);
  if (!out) throw std::runtime_error("cannot write suite baseline: " + path);
  WriteSuiteBaseline(out, baseline);
  out.flush();
  if (!out) throw std::runtime_error("failed writing suite baseline: " + path);
}

}  // namespace dsf
