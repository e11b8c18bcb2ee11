#include "topology.hpp"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "serve/client.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

ChildProcess::ChildProcess(const std::string& exe, const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> storage{exe};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  stdout_fd_ = fds[0];
  if (rc != 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + exe);
  }
}

ChildProcess::~ChildProcess() { Stop(); }

int ChildProcess::ReadPort(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string line;
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) throw std::runtime_error("no listening banner before timeout");
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char c = 0;
    const ssize_t n = ::read(stdout_fd_, &c, 1);
    if (n <= 0) throw std::runtime_error("child exited before its listening banner");
    if (c == '\n') break;
    line.push_back(c);
  }
  const dsf::JsonValue banner = dsf::ParseJson(line);
  const int port = static_cast<int>(banner.GetNumber("port", 0));
  if (!banner.GetBool("listening", false) || port <= 0) {
    throw std::runtime_error("unexpected banner: " + line);
  }
  return port;
}

double ChildProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

int ChildProcess::Stop() {
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  int code = -1;
  if (done == pid_) {
    code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  } else {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return code;
}

dsf::JsonValue Query(int port, const std::string& line) {
  dsf::ConnectionLimits limits;
  limits.connect_timeout_ms = 1000;
  limits.send_timeout_ms = 1000;
  limits.recv_timeout_ms = 10000;
  dsf::ClientConnection conn("127.0.0.1", port, limits);
  return conn.RoundTrip(line);
}

Topology::Topology(const std::string& dsf_exe) {
  const auto t0 = Clock::now();
  for (int i = 0; i < 2; ++i) {
    backends_.push_back(std::make_unique<ChildProcess>(
        dsf_exe, std::vector<std::string>{"serve", "--port", "0", "--threads", "1"}));
  }
  std::vector<std::string> router_args{"shard-router", "--port", "0"};
  for (auto& b : backends_) {
    backend_ports_.push_back(b->ReadPort(30'000));
    router_args.push_back("--backend");
    router_args.push_back("127.0.0.1:" + std::to_string(backend_ports_.back()));
  }
  router_ = std::make_unique<ChildProcess>(dsf_exe, router_args);
  router_port_ = router_->ReadPort(30'000);
  while (true) {
    try {
      if (Query(router_port_, R"({"op":"ping"})").GetBool("ok", false) &&
          Query(router_port_, R"({"op":"stats"})").GetNumber("backends_up", 0) == 2) {
        break;
      }
    } catch (const std::exception&) {
      // Not accepting yet; retry below.
    }
    if (SecondsSince(t0) > 30) throw std::runtime_error("topology not ready after 30 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  setup_s_ = SecondsSince(t0);
}

Topology::~Topology() { Stop(); }

double Topology::PeakRssMb() const {
  double total = router_ ? router_->PeakRssMb() : 0.0;
  for (const auto& b : backends_) total += b->PeakRssMb();
  return total;
}

bool Topology::Stop() {
  bool clean = true;
  if (router_) clean = router_->Stop() == 0 && clean;
  router_.reset();
  for (auto& b : backends_) clean = b->Stop() == 0 && clean;
  backends_.clear();
  return clean;
}

}  // namespace perfbench
