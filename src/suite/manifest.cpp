#include "suite/manifest.hpp"

#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/text.hpp"
#include "solve/solver_spec.hpp"

namespace dsf {

SuiteManifest ParseSuiteManifest(std::istream& in, const std::string& origin) {
  SuiteManifest manifest;
  manifest.origin = origin;
  bool seed_seen = false;
  bool reps_seen = false;
  bool band_seen = false;
  bool floor_seen = false;

  LineReader r(in, origin, '#');
  while (r.Next()) {
    const std::string_view directive = r.Head();
    const auto add_source = [&](SuiteSource::Kind kind) {
      SuiteSource src;
      src.kind = kind;
      src.path = r.Word("file path");
      src.line = r.Line();
      r.End();
      for (const SuiteSource& other : manifest.sources) {
        if (other.path == src.path) {
          r.Fail("duplicate source path '" + src.path + "'");
        }
      }
      manifest.sources.push_back(std::move(src));
    };

    if (directive == "seed") {
      if (seed_seen) r.Fail("duplicate 'seed' directive");
      manifest.seed = static_cast<std::uint64_t>(
          r.Int("seed", 1, std::numeric_limits<long long>::max()));
      r.End();
      seed_seen = true;
    } else if (directive == "solver") {
      const std::string spec = r.Word("solver spec");
      r.End();
      std::string why;
      if (!IsValidSolverSpec(spec, &why)) r.Fail(why);
      for (const std::string& other : manifest.solvers) {
        if (other == spec) r.Fail("duplicate solver '" + spec + "'");
      }
      manifest.solvers.push_back(spec);
    } else if (directive == "timing-reps") {
      if (reps_seen) r.Fail("duplicate 'timing-reps' directive");
      manifest.timing_reps = static_cast<int>(r.Int("timing-reps", 1, 100));
      r.End();
      reps_seen = true;
    } else if (directive == "latency-band") {
      if (band_seen) r.Fail("duplicate 'latency-band' directive");
      manifest.latency_band = r.Real("latency-band", 0.0, 1000.0);
      r.End();
      band_seen = true;
    } else if (directive == "latency-floor-ms") {
      if (floor_seen) r.Fail("duplicate 'latency-floor-ms' directive");
      manifest.latency_floor_ms = r.Real("latency-floor-ms", 0.0, 1e9);
      r.End();
      floor_seen = true;
    } else if (directive == "stp") {
      add_source(SuiteSource::Kind::kStp);
    } else if (directive == "optional-stp") {
      add_source(SuiteSource::Kind::kOptionalStp);
    } else if (directive == "spec") {
      add_source(SuiteSource::Kind::kSpec);
    } else {
      r.Fail("unknown directive '" + std::string(directive) + "'");
    }
  }

  if (manifest.solvers.empty()) {
    r.Fail("a suite manifest needs at least one 'solver' line");
  }
  if (manifest.sources.empty()) {
    r.Fail("a suite manifest needs at least one source line");
  }
  return manifest;
}

SuiteManifest LoadSuiteManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read suite manifest: " + path);
  SuiteManifest manifest = ParseSuiteManifest(in, path);
  manifest.base_dir = std::filesystem::path(path).parent_path().string();
  return manifest;
}

std::string ResolveSuitePath(const SuiteManifest& manifest,
                             const SuiteSource& source) {
  const std::filesystem::path p(source.path);
  if (p.is_absolute() || manifest.base_dir.empty()) return source.path;
  return (std::filesystem::path(manifest.base_dir) / p).string();
}

std::string SuiteDigest(const SuiteManifest& manifest) {
  Fnv1a h;
  h.Bytes("dsf-suite-digest-v1");
  h.U64(manifest.seed);
  h.I64(manifest.timing_reps);
  h.U64(std::bit_cast<std::uint64_t>(manifest.latency_band));
  h.U64(std::bit_cast<std::uint64_t>(manifest.latency_floor_ms));
  h.I64(static_cast<std::int64_t>(manifest.solvers.size()));
  for (const std::string& solver : manifest.solvers) {
    h.Bytes(solver).Byte(0);
  }
  h.I64(static_cast<std::int64_t>(manifest.sources.size()));
  for (const SuiteSource& src : manifest.sources) {
    h.Byte(static_cast<std::uint8_t>(src.kind));
    h.Bytes(src.path).Byte(0);
    std::ifstream in(ResolveSuitePath(manifest, src),
                     std::ios::in | std::ios::binary);
    if (!in) {
      // Only tolerable for optional sources; the runner rejects missing
      // required files before any digest is compared, so hashing a marker
      // here keeps the digest total without duplicating that error path.
      h.Bytes("<absent>");
      continue;
    }
    std::ostringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    h.I64(static_cast<std::int64_t>(text.size()));
    h.Bytes(text);
  }

  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << h.Digest();
  return os.str();
}

}  // namespace dsf
