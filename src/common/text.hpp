// Shared text reading: one line reader for every line grammar and one
// number reader for every decimal literal outside JSON's own number scan
// (cli/json.cpp, which must accept literals that overflow a double).
//
// Users. `LineReader` reads workload specs (workload/spec.cpp), suite
// manifests (suite/manifest.cpp), churn traces (workload/churn.cpp) and the
// SteinLib/DIMACS imports (workload/import.cpp). `ParseNumber` also reads
// workload parameters (workload/params.cpp), CLI flags (cli/flags.cpp),
// integer wire fields (serve/protocol.cpp), fault specs (serve/fault.cpp),
// the client's --delta grammar (serve/client.cpp), solver specs
// (solve/solver_spec.cpp), backend ports (serve/router.cpp) and the suite
// baseline's integers (suite/baseline.cpp). The socket server and client
// frame wire lines with `StripCr`.
//
// The rules, decided here once:
// - A line ends at '\n'. Files and payloads authored on Windows (or sent by
//   CRLF-framing clients) end lines with "\r\n"; the '\r' is stripped once,
//   at the framing layer, so it never rides inside a line's last token.
// - Tokens split on the bytes operator>> treats as blanks, and `Trim` strips
//   the same bytes.
// - A grammar's comment byte, if it has one, runs to the end of the line,
//   even from inside a token.
// - A number is a whole token: no '+', no blanks, nothing glued after it, no
//   '-' for an unsigned type, and a value its type cannot hold is an error,
//   never a wrap or a clamp.
// - A line grammar's errors read "origin:line: what".
#pragma once

#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dsf {

// std::getline with the trailing carriage return (if any) removed. Returns
// false at end of input, like the getline it wraps.
inline bool ReadLine(std::istream& in, std::string& line) {
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

// The same strip for callers that frame lines themselves (the socket
// server splits its receive buffer on '\n' without an istream).
[[nodiscard]] inline std::string_view StripCr(std::string_view line) noexcept {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

// The bytes operator>> skips as blanks: ' ', '\t', '\n', '\v', '\f', '\r'.
[[nodiscard]] constexpr bool IsBlank(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

[[nodiscard]] inline std::string_view Trim(std::string_view s) noexcept {
  while (!s.empty() && IsBlank(s.front())) s.remove_prefix(1);
  while (!s.empty() && IsBlank(s.back())) s.remove_suffix(1);
  return s;
}

// Splits `s` at every `sep` and trims each piece. Empty pieces stay: "a,,b"
// gives three pieces and "" gives one.
[[nodiscard]] inline std::vector<std::string_view> SplitOn(std::string_view s,
                                                           char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const auto pos = s.find(sep);
    out.push_back(Trim(s.substr(0, pos)));
    if (pos == std::string_view::npos) return out;
    s.remove_prefix(pos + 1);
  }
}

// Takes the next token off the front of `rest`; empty when none is left.
[[nodiscard]] inline std::string_view NextToken(
    std::string_view& rest) noexcept {
  std::size_t begin = 0;
  while (begin < rest.size() && IsBlank(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !IsBlank(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

// Reads all of `token` as one decimal integer of type T, or as a finite
// double. nullopt for anything else, including inf, nan and a value that T
// cannot hold.
template <class T>
[[nodiscard]] std::optional<T> ParseNumber(std::string_view token) noexcept {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
  if (token.empty()) return std::nullopt;
  T value{};
  const char* const end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

// The error every line grammar throws: "origin:line: what".
[[noreturn]] inline void FailAt(std::string_view origin, int line,
                                std::string_view what) {
  throw std::runtime_error(std::string(origin) + ":" + std::to_string(line) +
                           ": " + std::string(what));
}

// Passed as a LineReader's comment byte by grammars that have none.
inline constexpr char kNoComment = '\0';

// Reads a line grammar one record at a time. A record is a line that holds
// a token once its comment is cut; its first token is the head, and the
// typed reads below take the tokens after it in order. Every failure names
// the origin and the line.
class LineReader {
 public:
  LineReader(std::istream& in, std::string origin, char comment)
      : in_(in), origin_(std::move(origin)), comment_(comment) {}
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  // Advances to the next record; false at end of input. After `Unread`,
  // returns the same record again.
  bool Next() {
    if (pending_) {
      pending_ = false;
      return true;
    }
    while (ReadLine(in_, text_)) {
      ++line_;
      if (comment_ != kNoComment) {
        if (const auto at = text_.find(comment_); at != std::string::npos) {
          text_.erase(at);
        }
      }
      rest_ = text_;
      head_ = NextToken(rest_);
      if (!head_.empty()) return true;
    }
    return false;
  }

  // Hands the current record, none of whose tokens after the head were
  // read, back to the next `Next` (one record of lookahead).
  void Unread() noexcept { pending_ = true; }

  [[nodiscard]] std::string_view Head() const noexcept { return head_; }
  [[nodiscard]] int Line() const noexcept { return line_; }

  // The next token of the record, or nullopt at its end.
  std::optional<std::string_view> Token() noexcept {
    const std::string_view token = NextToken(rest_);
    if (token.empty()) return std::nullopt;
    return token;
  }

  std::string Word(std::string_view what) { return std::string(Need(what)); }

  long long Int(std::string_view what,
                long long lo = std::numeric_limits<long long>::min(),
                long long hi = std::numeric_limits<long long>::max()) {
    return Number(what, lo, hi);
  }

  double Real(std::string_view what, double lo, double hi) {
    return Number(what, lo, hi);
  }

  [[nodiscard]] bool AtEnd() const noexcept {
    std::string_view probe = rest_;
    return NextToken(probe).empty();
  }

  // A typo in a numeric column or an extra token must fail, not load a
  // silently different input.
  void End() const {
    if (!AtEnd()) Fail("trailing tokens after '" + std::string(head_) + "'");
  }

  [[noreturn]] void Fail(std::string_view what) const {
    FailAt(origin_, line_, what);
  }

 private:
  std::string_view Need(std::string_view what) {
    const std::string_view token = NextToken(rest_);
    if (token.empty()) Fail(Expected(what));
    return token;
  }

  std::string Expected(std::string_view what) const {
    return "expected " + std::string(what) + " after '" + std::string(head_) +
           "'";
  }

  template <class T>
  T Number(std::string_view what, T lo, T hi) {
    const std::string_view token = Need(what);
    const std::optional<T> value = ParseNumber<T>(token);
    if (!value) Fail(Expected(what) + ", got '" + std::string(token) + "'");
    if (*value < lo || *value > hi) {
      Fail(std::string(what) + " must be in [" + Render(lo) + ", " +
           Render(hi) + "], got " + std::string(token));
    }
    return *value;
  }

  template <class T>
  static std::string Render(T value) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  }

  std::istream& in_;
  std::string origin_;
  char comment_;
  std::string text_;       // the current line, comment cut
  std::string_view rest_;  // its unread tail
  std::string_view head_;
  int line_ = 0;
  bool pending_ = false;
};

}  // namespace dsf
