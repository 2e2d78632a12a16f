#include "server/worker.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <iostream>
#include <mutex>
#include <string>

#include "obs/obs.hpp"
#include "support/deadline.hpp"

namespace llhsc::server {

using support::Json;

namespace {

using Clock = std::chrono::steady_clock;

/// Everything one worker process needs; lives on worker_main's stack.
struct WorkerState {
  const ServerOptions* options;
  unsigned index;
  int channel_fd;
  ArtifactStore store;
  CheckCounters counters;
  std::mutex write_mutex;
  std::mutex log_mutex;

  WorkerState(const ServerOptions& opts, unsigned index, int fd)
      : options(&opts),
        index(index),
        channel_fd(fd),
        store(opts.store_capacity) {}

  void log_line(const std::string& text) {
    std::lock_guard<std::mutex> lock(log_mutex);
    std::ostream& os = options->log != nullptr ? *options->log : std::cerr;
    os << "llhscd[w" << index << "]: " << text << '\n';
    os.flush();
  }

  /// Writes one envelope line to the supervisor. Serialised because pool
  /// threads finish concurrently; MSG_NOSIGNAL because a dead supervisor
  /// must surface as EPIPE, not SIGPIPE.
  void send_envelope(Json envelope) {
    std::string line = envelope.dump();
    line += '\n';
    std::lock_guard<std::mutex> lock(write_mutex);
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(channel_fd, line.data() + off,
                               line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;  // supervisor gone; nothing useful left to do with this line
      }
      off += static_cast<size_t>(n);
    }
  }

  void respond(uint64_t seq, Json response, const std::string& code) {
    std::string line = stamp_response_line(std::move(response), 1);
    if (!line.empty() && line.back() == '\n') line.pop_back();
    Json envelope = Json::object();
    envelope.set("seq", Json::unsigned_integer(seq));
    envelope.set("code", Json::string(code));
    envelope.set("line", Json::string(std::move(line)));
    send_envelope(std::move(envelope));
  }

  void handle_request(uint64_t seq, const std::string& raw_line) {
    obs::count("server.worker.request", "server", 1);
    auto parsed = Json::parse(raw_line);
    if (!parsed || !parsed->is_object()) {
      // The supervisor only dispatches lines it parsed, so this is a
      // defensive guard against channel corruption, not a client surface.
      respond(seq, error_response(Json::null(), "bad_request",
                                  "request is not a JSON object"),
              "bad_request");
      return;
    }
    const Json request = std::move(*parsed);
    const Json id = request.at("id");
    const std::string method = request.at("method").as_string();
    const Json params = request.at("params");

    uint64_t deadline_ms = request.at("deadline_ms").as_uint(0);
    if (deadline_ms == 0) deadline_ms = options->default_deadline_ms;
    const support::Deadline deadline =
        deadline_ms > 0 ? support::Deadline::after_ms(deadline_ms)
                        : support::Deadline();

    const Clock::time_point start = Clock::now();
    if (deadline.expired()) {
      respond(seq,
              error_response(id, "deadline_exceeded",
                             "deadline expired before the request was "
                             "scheduled"),
              "deadline_exceeded");
      log_line(method + " deadline_exceeded");
      return;
    }
    Json response =
        execute_request(method, id, params, deadline, store, counters);
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - start)
                        .count();
    respond(seq, std::move(response), "");
    log_line(method + " ok " + std::to_string(us) + "us");
  }

  void handle_stats_probe(uint64_t seq) {
    Json check_counters = Json::object();
    check_counters.set("solver_checks",
                       Json::unsigned_integer(counters.solver_checks));
    check_counters.set("queries_issued",
                       Json::unsigned_integer(counters.queries_issued));
    check_counters.set("queries_pruned",
                       Json::unsigned_integer(counters.queries_pruned));
    check_counters.set("cache_hits",
                       Json::unsigned_integer(counters.cache_hits));
    check_counters.set("cache_errors",
                       Json::unsigned_integer(counters.cache_errors));
    Json stats = Json::object();
    stats.set("checks", Json::unsigned_integer(counters.checks));
    stats.set("sessions", Json::unsigned_integer(counters.sessions));
    stats.set("check_counters", std::move(check_counters));
    stats.set("store", store_stats_json(store.stats()));
    Json envelope = Json::object();
    envelope.set("seq", Json::unsigned_integer(seq));
    envelope.set("stats", std::move(stats));
    send_envelope(std::move(envelope));
  }
};

}  // namespace

int worker_main(int channel_fd, const ServerOptions& options, unsigned index) {
  // Shutdown arrives as channel EOF from the supervisor, never as a signal:
  // a terminal SIGINT/SIGTERM aimed at the process group must not kill a
  // worker mid-drain while the supervisor still owes clients responses.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  ::signal(SIGPIPE, SIG_IGN);

  WorkerState state(options, index, channel_fd);
  support::ThreadPool pool(support::ThreadPool::resolve_jobs(options.jobs));
  state.log_line("serving (" + std::to_string(pool.size()) + " threads)");

  std::string buffer;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(channel_fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the supervisor is draining (or died)
    buffer.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) continue;
      auto envelope = Json::parse(line);
      if (!envelope || !envelope->is_object()) continue;
      const uint64_t seq = envelope->at("seq").as_uint(0);
      if (envelope->has("ctl")) {
        if (envelope->at("ctl").as_string() == "stats") {
          state.handle_stats_probe(seq);
        }
        continue;
      }
      std::string raw_line = envelope->at("line").as_string();
      pool.submit([&state, seq, raw_line = std::move(raw_line)]() {
        state.handle_request(seq, raw_line);
      });
    }
  }
  // Channel EOF: finish everything already dispatched (responses still go
  // out — the socketpair's write side is independent of the read side),
  // then exit cleanly.
  pool.wait_idle();
  state.log_line("drained");
  return 0;
}

}  // namespace llhsc::server
