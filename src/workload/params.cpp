#include "workload/params.hpp"

#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/text.hpp"

namespace dsf {

namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error(what);
}

std::string KnownKeys(std::span<const ParamSpec> schema) {
  std::ostringstream os;
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) os << " ";
    os << schema[i].name;
  }
  return os.str();
}

// Renders a bound/default the way the schema author wrote it: integral
// params print without a decimal point.
std::string RenderNumber(const ParamSpec& spec, double value) {
  if (spec.kind == ParamSpec::Kind::kInt) {
    return std::to_string(static_cast<long long>(value));
  }
  std::ostringstream os;
  os << value;
  return os.str();
}

}  // namespace

long long ParamMap::GetInt(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      DSF_CHECK_MSG(e.is_int, "parameter '" << name << "' is not integral");
      return e.i;
    }
  }
  DSF_CHECK_MSG(false, "parameter '" << name << "' not in validated map");
}

double ParamMap::GetReal(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.is_int ? static_cast<double>(e.i) : e.d;
  }
  DSF_CHECK_MSG(false, "parameter '" << name << "' not in validated map");
}

bool ParamMap::Has(std::string_view name) const noexcept {
  for (const Entry& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

std::pair<std::string, std::string> SplitKeyValue(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == token.size() ||
      token.find('=', eq + 1) != std::string::npos) {
    Fail("expected key=value, got '" + token + "'");
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

ParamMap ValidateParams(
    std::string_view owner, std::span<const ParamSpec> schema,
    std::span<const std::pair<std::string, std::string>> raw) {
  ParamMap map;
  map.entries_.reserve(schema.size());
  for (const ParamSpec& spec : schema) {
    ParamMap::Entry entry;
    entry.name = std::string(spec.name);
    entry.is_int = spec.kind == ParamSpec::Kind::kInt;

    const std::string* text = nullptr;
    for (const auto& [key, value] : raw) {
      if (key != spec.name) continue;
      if (text != nullptr) {
        Fail("duplicate parameter '" + key + "' for '" + std::string(owner) +
             "'");
      }
      text = &value;
    }

    double value = spec.def;
    if (text != nullptr) {
      if (entry.is_int) {
        const auto parsed = ParseNumber<long long>(*text);
        if (!parsed) {
          Fail("parameter '" + entry.name + "' of '" + std::string(owner) +
               "' needs an integer, got '" + *text + "'");
        }
        value = static_cast<double>(*parsed);
        entry.i = *parsed;
      } else {
        const auto parsed = ParseNumber<double>(*text);
        if (!parsed) {
          Fail("parameter '" + entry.name + "' of '" + std::string(owner) +
               "' needs a number, got '" + *text + "'");
        }
        value = *parsed;
      }
      if (value < spec.min_value || value > spec.max_value) {
        Fail("parameter '" + entry.name + "' of '" + std::string(owner) +
             "' must be in [" + RenderNumber(spec, spec.min_value) + ", " +
             RenderNumber(spec, spec.max_value) + "], got '" + *text + "'");
      }
    }
    if (entry.is_int) {
      if (text == nullptr) entry.i = static_cast<long long>(spec.def);
    } else {
      entry.d = value;
    }
    map.entries_.push_back(std::move(entry));
  }

  for (const auto& [key, value] : raw) {
    bool known = false;
    for (const ParamSpec& spec : schema) {
      if (spec.name == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      Fail("unknown parameter '" + key + "' for '" + std::string(owner) +
           "' (known: " + KnownKeys(schema) + ")");
    }
  }
  return map;
}

std::string DescribeParam(const ParamSpec& spec) {
  std::ostringstream os;
  os << spec.name << ": "
     << (spec.kind == ParamSpec::Kind::kInt ? "int" : "real") << " in ["
     << RenderNumber(spec, spec.min_value) << ", "
     << RenderNumber(spec, spec.max_value) << "] (default "
     << RenderNumber(spec, spec.def) << ") — " << spec.description;
  return os.str();
}

}  // namespace dsf
