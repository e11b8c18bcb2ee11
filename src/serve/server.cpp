#include "serve/server.hpp"

#include <chrono>
#include <string>

namespace dsf {

Server::Server(ServeOptions options)
    : LineEndpoint(EndpointOptionsOf(options)) {
  cache_ = std::make_unique<ResultCache>(options.cache_entries,
                                         options.cache_shards);
  AdmissionOptions aopt;
  aopt.threads = options.threads;
  aopt.batch_max = options.batch_max;
  aopt.max_pending = options.max_pending;
  queue_ = std::make_unique<AdmissionQueue>(cache_.get(), aopt);
  context_.cache = cache_.get();
  context_.queue = queue_.get();
  context_.max_deadline_ms = options.deadline_ms;
  context_.started = std::chrono::steady_clock::now();
  if (!options.fault_spec.empty()) Fault().Configure(options.fault_spec);
}

Server::~Server() {
  // Handlers dispatch into HandleLine (this class) until the drain is
  // complete, so the shutdown must run before any member is destroyed.
  Shutdown();
}

int RunServe(const ServeOptions& options) {
  Server server(options);
  server.Start();
  return server.RunUntilDrained(
      "serve", "\"threads\":" + std::to_string(options.threads));
}

}  // namespace dsf
