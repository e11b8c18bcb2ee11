#include "serve/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/text.hpp"
#include "serve/sockets.hpp"
#include "solve/solver_spec.hpp"

namespace dsf {

ClientConnection::ClientConnection(const std::string& host, int port,
                                   ConnectionLimits limits)
    : max_line_bytes_(limits.max_line_bytes) {
  fd_ = ConnectTcp(host, port, limits.connect_timeout_ms);
  SetSendTimeout(fd_, limits.send_timeout_ms);
  SetRecvTimeout(fd_, limits.recv_timeout_ms);
}

ClientConnection::~ClientConnection() {
  if (fd_ >= 0) ::close(fd_);
}

void ClientConnection::SendLine(std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  if (!SendAll(fd_, framed.data(), framed.size())) {
    throw std::runtime_error(std::string("send: ") + std::strerror(errno));
  }
}

bool ClientConnection::RecvLine(std::string& line) {
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line.assign(StripCr(std::string_view(buffer_).substr(0, nl)));
      buffer_.erase(0, nl + 1);
      return true;
    }
    if (max_line_bytes_ != 0 && buffer_.size() > max_line_bytes_) {
      throw std::runtime_error("response line exceeds " +
                               std::to_string(max_line_bytes_) + " bytes");
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      // EAGAIN under SO_RCVTIMEO is the read deadline, the failure mode a
      // hung-but-connected peer produces.
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw std::runtime_error("recv: timed out waiting for a response");
      }
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

JsonValue ClientConnection::RoundTrip(std::string_view request_line) {
  SendLine(request_line);
  std::string response;
  if (!RecvLine(response)) {
    throw std::runtime_error("server closed the connection mid-request");
  }
  return ParseJson(response);
}

// Parses the --delta grammar and writes the wire "delta" object. Tokens
// are separated by commas and/or whitespace; each is add=U-V, rm=U-V,
// addt=V:L, or rmt=V.
static void WriteDeltaJson(JsonWriter& json, const std::string& spec) {
  std::vector<std::pair<long long, long long>> add_pairs;
  std::vector<std::pair<long long, long long>> remove_pairs;
  std::vector<std::pair<long long, long long>> add_terminals;
  std::vector<long long> remove_terminals;

  const auto fail = [](std::string_view token) -> std::runtime_error {
    return std::runtime_error(
        "bad --delta token '" + std::string(token) +
        "' (want add=U-V, rm=U-V, addt=V:L, or rmt=V)");
  };
  const auto parse_int = [&](std::string_view text, std::string_view token) {
    const auto value = ParseNumber<long long>(text);
    if (!value || *value < 0) throw fail(token);
    return *value;
  };
  const auto parse_two = [&](std::string_view text, char sep,
                             std::string_view token) {
    const std::size_t at = text.find(sep);
    if (at == std::string_view::npos) throw fail(token);
    return std::pair<long long, long long>{
        parse_int(text.substr(0, at), token),
        parse_int(text.substr(at + 1), token)};
  };

  std::string normalized = spec;
  std::replace(normalized.begin(), normalized.end(), ',', ' ');
  std::string_view tokens = normalized;
  for (std::string_view token = NextToken(tokens); !token.empty();
       token = NextToken(tokens)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) throw fail(token);
    const std::string_view kind = token.substr(0, eq);
    const std::string_view rest = token.substr(eq + 1);
    if (kind == "add") {
      add_pairs.push_back(parse_two(rest, '-', token));
    } else if (kind == "rm") {
      remove_pairs.push_back(parse_two(rest, '-', token));
    } else if (kind == "addt") {
      add_terminals.push_back(parse_two(rest, ':', token));
    } else if (kind == "rmt") {
      remove_terminals.push_back(parse_int(rest, token));
    } else {
      throw fail(token);
    }
  }

  json.Key("delta");
  json.BeginObject();
  const auto write_pairs =
      [&](std::string_view key,
          const std::vector<std::pair<long long, long long>>& pairs) {
        if (pairs.empty()) return;
        json.Key(key);
        json.BeginArray();
        for (const auto& [a, b] : pairs) {
          json.BeginArray();
          json.Int(a);
          json.Int(b);
          json.EndArray();
        }
        json.EndArray();
      };
  write_pairs("add_pairs", add_pairs);
  write_pairs("remove_pairs", remove_pairs);
  write_pairs("add_terminals", add_terminals);
  if (!remove_terminals.empty()) {
    json.Key("remove_terminals");
    json.BeginArray();
    for (const long long v : remove_terminals) json.Int(v);
    json.EndArray();
  }
  json.EndObject();
}

std::string BuildClientRequest(const ClientArgs& args) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.Key("op");
  if (args.stats) {
    json.String("stats");
  } else if (args.ping) {
    json.String("ping");
  } else {
    json.String(args.revise_base.empty() ? "solve" : "revise");
    if (!args.scenario_path.empty()) {
      std::ifstream in(args.scenario_path);
      if (!in) {
        throw std::runtime_error("cannot read scenario file: " +
                                 args.scenario_path);
      }
      std::ostringstream text;
      text << in.rdbuf();
      json.Key("spec");
      json.String(text.str());
    } else {
      json.Key("generate");
      json.String(args.generate);
      if (!args.instance.empty()) {
        json.Key("instance");
        json.String(args.instance);
      }
    }
    if (!args.solvers.empty()) {
      json.Key("solvers");
      json.BeginArray();
      // Paren-aware split: portfolio(...) specs carry commas of their own.
      for (const std::string& spec : SplitSolverList(args.solvers)) {
        json.String(spec);
      }
      json.EndArray();
    }
    if (args.seed_set) {
      json.Key("seed");
      json.UInt(args.seed);
    }
    if (args.epsilon > 0.0) {
      json.Key("epsilon");
      // Full precision: the server's solve must see the same double the
      // one-shot CLI would parse from the same --epsilon string.
      json.DoubleExact(args.epsilon);
    }
    if (args.repetitions != 1) {
      json.Key("repetitions");
      json.Int(args.repetitions);
    }
    if (args.deadline_ms > 0) {
      json.Key("deadline_ms");
      json.Int(args.deadline_ms);
    }
    if (!args.prune) {
      json.Key("prune");
      json.Bool(false);
    }
    if (!args.revise_base.empty()) {
      json.Key("base");
      json.String(args.revise_base);
      WriteDeltaJson(json, args.delta);
      if (!args.revise_mode.empty()) {
        json.Key("mode");
        json.String(args.revise_mode);
      }
    }
  }
  json.EndObject();
  return os.str();
}

// Connects with the shared retry policy: transient connect failures (a
// backend mid-restart, a router not yet bound) back off and try again
// instead of failing the whole invocation on the first ECONNREFUSED.
static ClientConnection ConnectWithRetry(const ClientArgs& args) {
  const std::uint64_t nonce =
      static_cast<std::uint64_t>(::getpid()) * 0x9e3779b97f4a7c15ULL +
      static_cast<std::uint64_t>(args.port);
  for (int attempt = 0;; ++attempt) {
    try {
      return ClientConnection(args.host, args.port);
    } catch (const std::exception& e) {
      if (attempt >= args.retry.retries) throw;
      const int delay = BackoffDelayMs(args.retry, attempt, nonce);
      std::fprintf(stderr,
                   "dsf client: connect failed (%s); retry %d/%d in %d ms\n",
                   e.what(), attempt + 1, args.retry.retries, delay);
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

int RunClient(const ClientArgs& args) {
  const std::string request = BuildClientRequest(args);
  ClientConnection conn = ConnectWithRetry(args);

  std::ofstream file;
  if (!args.json_path.empty()) {
    file.open(args.json_path);
    if (!file) {
      throw std::runtime_error("cannot write " + args.json_path);
    }
  }

  const int sends = (args.stats || args.ping) ? 1 : args.repeat;
  bool all_ok = true;
  for (int i = 0; i < sends; ++i) {
    conn.SendLine(request);
    std::string response;
    if (!conn.RecvLine(response)) {
      std::fprintf(stderr, "dsf client: server closed the connection\n");
      return 2;
    }
    std::printf("%s\n", response.c_str());
    if (file.is_open()) file << response << "\n";

    const JsonValue doc = ParseJson(response);
    if (!doc.GetBool("ok", false)) {
      all_ok = false;
      continue;
    }
    if (const JsonValue* results = doc.Find("results")) {
      for (const JsonValue& r : results->array) {
        if (!r.GetBool("feasible", false)) all_ok = false;
      }
    }
  }
  if (file.is_open()) {
    file.flush();
    if (!file) {
      std::fprintf(stderr, "dsf client: error writing %s\n",
                   args.json_path.c_str());
      return 2;
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace dsf
