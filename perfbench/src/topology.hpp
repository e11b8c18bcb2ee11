// The measured topology: one `dsf shard-router` (default flags) fronting two
// `dsf serve --threads 1` backends, each a real child process on an
// ephemeral localhost port.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "cli/json.hpp"

namespace perfbench {

// One child process whose stdout's first line is the dsf
// {"listening":...,"port":N} banner. Stop() sends SIGTERM (the programs
// drain and exit 0), waits, and escalates to SIGKILL after a grace period.
class ChildProcess {
 public:
  ChildProcess(const std::string& exe, const std::vector<std::string>& args);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  // Blocks until the banner arrives; throws on EOF or timeout.
  int ReadPort(int timeout_ms);
  // VmHWM of the live process in MiB (0 when unreadable).
  [[nodiscard]] double PeakRssMb() const;
  // Returns the exit status (-1 when it had to be killed).
  int Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

class Topology {
 public:
  // Spawns both backends and the router and returns once the router
  // answers `ping` and its `stats` reports both backends up.
  explicit Topology(const std::string& dsf_exe);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] int RouterPort() const noexcept { return router_port_; }
  [[nodiscard]] const std::vector<int>& BackendPorts() const noexcept { return backend_ports_; }
  // Seconds from the first spawn until ready.
  [[nodiscard]] double SetupSeconds() const noexcept { return setup_s_; }
  // Sum of VmHWM over the three processes.
  [[nodiscard]] double PeakRssMb() const;
  // Stops the router, then the backends; true when all three exited 0.
  bool Stop();

 private:
  std::vector<std::unique_ptr<ChildProcess>> backends_;
  std::unique_ptr<ChildProcess> router_;
  std::vector<int> backend_ports_;
  int router_port_ = 0;
  double setup_s_ = 0.0;
};

// One request/response round trip on a fresh connection (stats, ping).
dsf::JsonValue Query(int port, const std::string& line);

}  // namespace perfbench
