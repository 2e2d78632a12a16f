#include "server/server.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <optional>
#include <thread>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "server/net.hpp"
#include "server/worker.hpp"
#include "support/deadline.hpp"

namespace llhsc::server {

using support::Json;

namespace {

using Clock = std::chrono::steady_clock;

/// Stop-pipe bytes: the event loop demultiplexes on the byte value, so one
/// async-signal-safe pipe carries both "drain now" and "child exited".
constexpr char kStopByte = 'T';
constexpr char kChildByte = 'C';

/// The currently-running server's self-pipe write end, for the signal
/// handlers. One daemon per process; a plain sig_atomic_t-sized store is
/// all a handler may touch besides write().
std::atomic<int> g_signal_pipe{-1};

extern "C" void llhscd_signal_handler(int) {
  const int fd = g_signal_pipe.load(std::memory_order_relaxed);
  if (fd >= 0) {
    // The return value is deliberately unused: if the pipe is full a stop
    // byte is already pending.
    [[maybe_unused]] ssize_t n = ::write(fd, &kStopByte, 1);
  }
}

extern "C" void llhscd_sigchld_handler(int) {
  const int fd = g_signal_pipe.load(std::memory_order_relaxed);
  if (fd >= 0) {
    [[maybe_unused]] ssize_t n = ::write(fd, &kChildByte, 1);
  }
}

uint64_t micros_since(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Merges the numeric fields of one worker stats object into an
/// accumulator keyed by field name.
void merge_counter_fields(const Json& source,
                          std::map<std::string, uint64_t>& into) {
  for (const auto& [key, value] : source.fields()) {
    into[key] += value.as_uint(0);
  }
}

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options)
    : options_(std::move(options)), store_(options_.store_capacity) {}

Server::~Server() = default;

void Server::log_line(const std::string& text) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  std::ostream& os = options_.log != nullptr ? *options_.log : std::cerr;
  os << text << '\n';
  os.flush();
}

void Server::request_stop() {
  // The lock pairs with run()'s cleanup: the write end is never closed
  // while a stop request is mid-write.
  std::lock_guard<std::mutex> lock(stop_pipe_mutex_);
  const int fd = stop_pipe_write_.load(std::memory_order_acquire);
  if (fd >= 0) {
    [[maybe_unused]] ssize_t n = ::write(fd, &kStopByte, 1);
  }
}

void Server::wake_loop() {
  const int fd = wake_pipe_write_;
  if (fd >= 0) {
    // A full pipe means wake bytes are already pending; the loop will run.
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

void Server::enqueue_output(const std::shared_ptr<Connection>& conn,
                            const std::string& bytes) {
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->closed || conn->fd < 0) return;
    conn->outbuf += bytes;
    // Opportunistic flush: most responses fit the socket buffer and leave
    // nothing for the event loop to do.
    while (!conn->outbuf.empty()) {
      const ssize_t n = ::send(conn->fd, conn->outbuf.data(),
                               conn->outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn->outbuf.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // Peer gone: drop the buffered bytes; the verdict stays cached for
      // the next ask. The loop closes the fd.
      conn->closed = true;
      conn->outbuf.clear();
      break;
    }
  }
  wake_loop();
}

void Server::respond(const std::shared_ptr<Connection>& conn, Json response,
                     int schema_version) {
  enqueue_output(conn,
                 stamp_response_line(std::move(response), schema_version));
}

void Server::respond_error(const std::shared_ptr<Connection>& conn,
                           const Json& id, const std::string& code,
                           const std::string& message) {
  respond(conn, error_response(id, code, message));
}

void Server::release_admission(const std::string& tenant) {
  admitted_.fetch_sub(1, std::memory_order_acq_rel);
  if (options_.tenant_quota > 0) {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto it = tenant_admitted_.find(tenant);
    if (it != tenant_admitted_.end() && --it->second == 0) {
      tenant_admitted_.erase(it);
    }
  }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  auto parsed = Json::parse(line);
  if (!parsed || !parsed->is_object()) {
    rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
    respond_error(conn, Json::null(), "bad_request",
                  "request is not a JSON object");
    return;
  }
  const Json request = std::move(*parsed);
  const Json id = request.at("id");
  const std::string method = request.at("method").as_string();

  if (method == "ping") {
    pings_.fetch_add(1, std::memory_order_relaxed);
    Json result = Json::object();
    result.set("pong", Json::boolean(true));
    respond(conn, ok_response(id, std::move(result)));
    return;
  }
  if (method == "hello") {
    handle_hello(conn, id);
    return;
  }
  if (method == "healthz") {
    handle_healthz(conn, id);
    return;
  }
  if (method == "stats") {
    handle_stats(conn, id);
    return;
  }
  if (method == "shutdown") {
    Json result = Json::object();
    result.set("stopping", Json::boolean(true));
    respond(conn, ok_response(id, std::move(result)));
    request_stop();
    return;
  }
  if (method != "check" && method != "session") {
    rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
    respond_error(conn, id, "bad_request", "unknown method '" + method + "'");
    return;
  }

  if (draining_.load(std::memory_order_acquire)) {
    rejected_shutting_down_.fetch_add(1, std::memory_order_relaxed);
    respond_error(conn, id, "shutting_down",
                  "daemon is draining; retry against a fresh instance");
    return;
  }

  // Bounded admission: overload is an explicit, immediate answer — never an
  // unbounded queue the client cannot see.
  if (admitted_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.queue_limit) {
    admitted_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
    respond_error(conn, id, "overloaded",
                  "admission queue is full (limit " +
                      std::to_string(options_.queue_limit) + ")");
    return;
  }

  // Per-tenant quota on top of the global bound: one noisy tenant cannot
  // starve the rest of the admission budget.
  const std::string tenant = request.at("tenant").as_string();
  if (options_.tenant_quota > 0) {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    size_t& count = tenant_admitted_[tenant];
    if (count >= options_.tenant_quota) {
      if (count == 0) tenant_admitted_.erase(tenant);
      admitted_.fetch_sub(1, std::memory_order_acq_rel);
      rejected_quota_.fetch_add(1, std::memory_order_relaxed);
      obs::count("server.quota.rejected", "server", 1);
      respond_error(conn, id, "quota_exceeded",
                    "tenant '" + tenant + "' is at its admission quota (" +
                        std::to_string(options_.tenant_quota) + ")");
      return;
    }
    ++count;
  }

  const uint64_t deadline_ms = request.at("deadline_ms").as_uint(0);
  conn->pending.fetch_add(1, std::memory_order_acq_rel);
  if (!slots_.empty()) {
    const Json params = request.at("params");
    const uint64_t seq = next_seq_++;
    Outstanding out;
    out.conn = conn;
    out.id = id;
    out.tenant = tenant;
    out.raw_line = line;
    out.shard = shard_key(method, params);
    out.start_us = obs::now_us();
    outstanding_.emplace(seq, std::move(out));
    obs::count("server.dispatch", "server", 1);
    dispatch_to_worker(seq);
    return;
  }
  run_in_process(conn, id, method, request.at("params"), tenant, deadline_ms);
}

void Server::run_in_process(const std::shared_ptr<Connection>& conn,
                            const Json& id, const std::string& method,
                            const Json& params, const std::string& tenant,
                            uint64_t deadline_ms) {
  if (deadline_ms == 0) deadline_ms = options_.default_deadline_ms;
  const support::Deadline deadline =
      deadline_ms > 0 ? support::Deadline::after_ms(deadline_ms)
                      : support::Deadline();
  // Admission timestamp: when profiling, the gap between this and the pool
  // picking the task up becomes the request.wait span.
  const uint64_t admit_us = obs::now_us();
  pool_->submit([this, conn, id, method, params, tenant, deadline,
                 admit_us]() {
    const Clock::time_point start = Clock::now();
    if (deadline.expired()) {
      rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
      respond_error(conn, id, "deadline_exceeded",
                    "deadline expired before the request was scheduled");
      release_admission(tenant);
      conn->pending.fetch_sub(1, std::memory_order_acq_rel);
      wake_loop();
      log_line("llhscd: " + method + " deadline_exceeded");
      return;
    }
    const bool profiling = !options_.profile_path.empty();
    obs::TraceSink request_sink;
    Json response;
    {
      // Sink first, span second: the span records at block exit while the
      // sink is still installed.
      std::optional<obs::ScopedSink> sink_guard;
      std::optional<obs::Span> service_span;
      if (profiling) {
        const uint64_t service_start_us = obs::now_us();
        sink_guard.emplace(&request_sink);
        obs::record_span(request_sink, "request.wait", "request", admit_us,
                         service_start_us - admit_us, {{"method", method}});
        service_span.emplace("request.service", "request");
        if (service_span->active()) service_span->arg("method", method);
      }
      response =
          execute_request(method, id, params, deadline, store_, counters_);
    }
    if (profiling) profile_sink_.extend(request_sink.take());
    const uint64_t us = micros_since(start);
    latency_.record(us);
    respond(conn, std::move(response));
    release_admission(tenant);
    conn->pending.fetch_sub(1, std::memory_order_acq_rel);
    wake_loop();
    log_line("llhscd: " + method + " ok " + std::to_string(us) + "us");
  });
}

void Server::handle_hello(const std::shared_ptr<Connection>& conn,
                          const Json& id) {
  Json capabilities = Json::array();
  for (const char* method : {"ping", "hello", "check", "session", "stats",
                             "healthz", "shutdown"}) {
    capabilities.push(Json::string(method));
  }
  Json transports = Json::array();
  if (!options_.socket_path.empty()) transports.push(Json::string("unix"));
  if (listen_tcp_fd_ >= 0 || !options_.tcp_listen.empty()) {
    transports.push(Json::string("tcp"));
  }
  Json result = Json::object();
  result.set("protocol_version", Json::integer(kProtocolVersion));
  result.set("capabilities", std::move(capabilities));
  result.set("transports", std::move(transports));
  result.set("workers", Json::unsigned_integer(options_.workers));
  result.set("peer", Json::string(conn->peer));
  respond(conn, ok_response(id, std::move(result)), 2);
}

void Server::handle_healthz(const std::shared_ptr<Connection>& conn,
                            const Json& id) {
  size_t alive = 0;
  for (const WorkerSlot& slot : slots_) {
    if (slot.alive) ++alive;
  }
  Json workers = Json::object();
  workers.set("configured", Json::unsigned_integer(options_.workers));
  workers.set("alive", Json::unsigned_integer(alive));
  workers.set("restarts", Json::unsigned_integer(worker_restarts_));
  // Live worker pids, so operators (and the crash-recovery tests) can
  // target a specific process without scraping logs.
  Json pids = Json::array();
  for (const WorkerSlot& slot : slots_) {
    if (slot.alive) pids.push(Json::integer(slot.pid));
  }
  workers.set("pids", std::move(pids));
  Json result = Json::object();
  result.set("status", Json::string(draining_.load(std::memory_order_acquire)
                                        ? "draining"
                                        : "ok"));
  result.set("workers", std::move(workers));
  result.set("in_flight", Json::unsigned_integer(admitted_.load()));
  result.set("queue_limit", Json::unsigned_integer(options_.queue_limit));
  result.set("tenant_quota", Json::unsigned_integer(options_.tenant_quota));
  result.set("quota_rejected", Json::unsigned_integer(rejected_quota_));
  result.set("worker_failures", Json::unsigned_integer(worker_failures_));
  result.set("requests_total", Json::unsigned_integer(requests_total_));
  respond(conn, ok_response(id, std::move(result)), 2);
}

Json Server::frontend_stats_errors() {
  Json errors = Json::object();
  errors.set("overloaded", Json::unsigned_integer(rejected_overloaded_));
  errors.set("bad_request", Json::unsigned_integer(rejected_bad_request_));
  errors.set("shutting_down",
             Json::unsigned_integer(rejected_shutting_down_));
  errors.set("deadline_exceeded", Json::unsigned_integer(rejected_deadline_));
  return errors;
}

void Server::handle_stats(const std::shared_ptr<Connection>& conn,
                          const Json& id) {
  if (slots_.empty()) {
    // In-process mode answers from local counters — this is the original v1
    // stats reply, byte-identical to previous releases.
    Json latency = Json::object();
    latency.set("count", Json::unsigned_integer(latency_.count()));
    const uint64_t n = latency_.count();
    latency.set("mean_us", Json::unsigned_integer(
                               n == 0 ? 0 : latency_.total_micros() / n));
    latency.set("p50_us",
                Json::unsigned_integer(latency_.percentile_micros(50)));
    latency.set("p95_us",
                Json::unsigned_integer(latency_.percentile_micros(95)));
    // Accumulated from each CheckOutcome's trace, which is itself a
    // reduction of the obs event stream — the same source the one-shot
    // CLI's --stats line reads, so the two surfaces agree by construction.
    Json check_counters = Json::object();
    check_counters.set("solver_checks",
                       Json::unsigned_integer(counters_.solver_checks));
    check_counters.set("queries_issued",
                       Json::unsigned_integer(counters_.queries_issued));
    check_counters.set("queries_pruned",
                       Json::unsigned_integer(counters_.queries_pruned));
    check_counters.set("cache_hits",
                       Json::unsigned_integer(counters_.cache_hits));
    check_counters.set("cache_errors",
                       Json::unsigned_integer(counters_.cache_errors));
    Json result = Json::object();
    result.set("requests_total", Json::unsigned_integer(requests_total_));
    result.set("checks", Json::unsigned_integer(counters_.checks));
    result.set("sessions", Json::unsigned_integer(counters_.sessions));
    result.set("pings", Json::unsigned_integer(pings_));
    result.set("in_flight", Json::unsigned_integer(admitted_.load()));
    result.set("errors", frontend_stats_errors());
    result.set("latency", std::move(latency));
    result.set("check_counters", std::move(check_counters));
    result.set("store", store_stats_json(store_.stats()));
    respond(conn, ok_response(id, std::move(result)));
    return;
  }

  // Worker mode: snapshot every worker's counters asynchronously and merge.
  auto entry = std::make_shared<PendingStats>();
  entry->conn = conn;
  entry->id = id;
  conn->pending.fetch_add(1, std::memory_order_acq_rel);
  for (WorkerSlot& slot : slots_) {
    if (!slot.alive) continue;
    const uint64_t seq = next_seq_++;
    stats_waiters_.emplace(seq, entry);
    entry->waiting += 1;
    send_stats_probe(seq, slot);
  }
  if (entry->waiting == 0) {
    // No worker alive right now; answer with front-end counters only.
    respond_stats_aggregate(entry);
  }
}

void Server::send_stats_probe(uint64_t seq, WorkerSlot& slot) {
  Json envelope = Json::object();
  envelope.set("seq", Json::unsigned_integer(seq));
  envelope.set("ctl", Json::string("stats"));
  std::string line = envelope.dump();
  line += '\n';
  slot.outbuf += line;
  slot.owned.push_back(seq);
  flush_worker(slot);
}

void Server::finish_stats(uint64_t seq, const Json* worker_stats) {
  auto it = stats_waiters_.find(seq);
  if (it == stats_waiters_.end()) return;
  const std::shared_ptr<PendingStats> entry = it->second;
  stats_waiters_.erase(it);
  if (worker_stats != nullptr) {
    entry->checks += worker_stats->at("checks").as_uint(0);
    entry->sessions += worker_stats->at("sessions").as_uint(0);
    merge_counter_fields(worker_stats->at("check_counters"),
                         entry->check_counters);
    merge_counter_fields(worker_stats->at("store"), entry->store);
  }
  if (--entry->waiting == 0) respond_stats_aggregate(entry);
}

void Server::respond_stats_aggregate(
    const std::shared_ptr<PendingStats>& entry) {
  Json errors = frontend_stats_errors();
  errors.set("quota_exceeded", Json::unsigned_integer(rejected_quota_));
  errors.set("worker_failed", Json::unsigned_integer(worker_failures_));
  Json latency = Json::object();
  latency.set("count", Json::unsigned_integer(latency_.count()));
  const uint64_t n = latency_.count();
  latency.set("mean_us",
              Json::unsigned_integer(n == 0 ? 0 : latency_.total_micros() / n));
  latency.set("p50_us",
              Json::unsigned_integer(latency_.percentile_micros(50)));
  latency.set("p95_us",
              Json::unsigned_integer(latency_.percentile_micros(95)));
  Json check_counters = Json::object();
  for (const char* key : {"solver_checks", "queries_issued", "queries_pruned",
                          "cache_hits", "cache_errors"}) {
    const auto found = entry->check_counters.find(key);
    check_counters.set(key, Json::unsigned_integer(
                                found == entry->check_counters.end()
                                    ? 0
                                    : found->second));
  }
  Json store = Json::object();
  for (const char* key :
       {"hits", "misses", "evictions", "tree_parses", "delta_parses",
        "model_parses", "product_line_builds", "derives", "unit_checks",
        "graph_builds", "cross_checks", "lifted_checks"}) {
    const auto found = entry->store.find(key);
    store.set(key, Json::unsigned_integer(
                       found == entry->store.end() ? 0 : found->second));
  }
  size_t alive = 0;
  for (const WorkerSlot& slot : slots_) {
    if (slot.alive) ++alive;
  }
  Json workers = Json::object();
  workers.set("configured", Json::unsigned_integer(options_.workers));
  workers.set("alive", Json::unsigned_integer(alive));
  workers.set("restarts", Json::unsigned_integer(worker_restarts_));
  Json result = Json::object();
  result.set("requests_total", Json::unsigned_integer(requests_total_));
  result.set("checks", Json::unsigned_integer(entry->checks));
  result.set("sessions", Json::unsigned_integer(entry->sessions));
  result.set("pings", Json::unsigned_integer(pings_));
  result.set("in_flight", Json::unsigned_integer(admitted_.load()));
  result.set("errors", std::move(errors));
  result.set("latency", std::move(latency));
  result.set("check_counters", std::move(check_counters));
  result.set("store", std::move(store));
  result.set("workers", std::move(workers));
  respond(entry->conn, ok_response(entry->id, std::move(result)), 2);
  entry->conn->pending.fetch_sub(1, std::memory_order_acq_rel);
}

// ---------------------------------------------------------------------------
// Worker supervision
// ---------------------------------------------------------------------------

bool Server::spawn_worker(unsigned index) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) < 0) {
    log_line("llhscd: cannot create worker channel: " +
             std::string(std::strerror(errno)));
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    log_line("llhscd: cannot fork worker: " +
             std::string(std::strerror(errno)));
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Child: detach from the supervisor's signal plumbing first, then close
    // every inherited supervisor fd — listeners, pipes, client connections,
    // and the other workers' channels.
    g_signal_pipe.store(-1, std::memory_order_relaxed);
    ::signal(SIGCHLD, SIG_DFL);
    ::close(sv[0]);
    if (listen_unix_fd_ >= 0) ::close(listen_unix_fd_);
    if (listen_tcp_fd_ >= 0) ::close(listen_tcp_fd_);
    if (stop_pipe_read_ >= 0) ::close(stop_pipe_read_);
    const int stop_write = stop_pipe_write_.load(std::memory_order_acquire);
    if (stop_write >= 0) ::close(stop_write);
    if (wake_pipe_read_ >= 0) ::close(wake_pipe_read_);
    if (wake_pipe_write_ >= 0) ::close(wake_pipe_write_);
    for (const auto& conn : connections_) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    for (const WorkerSlot& other : slots_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    const int rc = worker_main(sv[1], options_, index);
    // _Exit: never run the parent image's atexit/static destructors twice.
    std::_Exit(rc);
  }
  ::close(sv[1]);
  net::set_nonblocking(sv[0]);
  WorkerSlot& slot = slots_[index];
  slot.pid = pid;
  slot.fd = sv[0];
  slot.alive = true;
  slot.inbuf.clear();
  slot.outbuf.clear();
  slot.owned.clear();
  log_line("llhscd: worker w" + std::to_string(index) + " pid " +
           std::to_string(pid));
  return true;
}

void Server::dispatch_to_worker(uint64_t seq) {
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  const size_t n = slots_.size();
  const size_t preferred = it->second.shard % n;
  for (size_t probe = 0; probe < n; ++probe) {
    WorkerSlot& slot = slots_[(preferred + probe) % n];
    if (!slot.alive) continue;
    Json envelope = Json::object();
    envelope.set("seq", Json::unsigned_integer(seq));
    envelope.set("line", Json::string(it->second.raw_line));
    std::string line = envelope.dump();
    line += '\n';
    slot.outbuf += line;
    slot.owned.push_back(seq);
    flush_worker(slot);
    return;
  }
  // No worker alive right now (a crash burst mid-restart): park the request
  // until the next spawn succeeds.
  undispatched_.push_back(seq);
}

void Server::flush_worker(WorkerSlot& slot) {
  while (slot.fd >= 0 && !slot.outbuf.empty()) {
    const ssize_t n = ::send(slot.fd, slot.outbuf.data(), slot.outbuf.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      slot.outbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN waits for POLLOUT; a dead channel is handled at reap time.
    break;
  }
}

void Server::worker_readable(WorkerSlot& slot) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(slot.fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      // EOF/reset: the worker died. Stop polling the channel; SIGCHLD
      // drives the actual reap + retry + respawn.
      slot.alive = false;
      return;
    }
    slot.inbuf.append(chunk, static_cast<size_t>(n));
    size_t newline;
    while ((newline = slot.inbuf.find('\n')) != std::string::npos) {
      std::string line = slot.inbuf.substr(0, newline);
      slot.inbuf.erase(0, newline + 1);
      if (!line.empty()) handle_worker_line(slot, line);
    }
  }
}

void Server::handle_worker_line(WorkerSlot& slot, const std::string& line) {
  auto envelope = Json::parse(line);
  if (!envelope || !envelope->is_object()) return;
  const uint64_t seq = envelope->at("seq").as_uint(0);
  auto disown = [&slot, seq]() {
    auto pos = std::find(slot.owned.begin(), slot.owned.end(), seq);
    if (pos != slot.owned.end()) slot.owned.erase(pos);
  };
  if (envelope->has("stats")) {
    const Json stats = envelope->at("stats");
    disown();
    finish_stats(seq, &stats);
    return;
  }
  auto it = outstanding_.find(seq);
  disown();
  if (it == outstanding_.end()) return;
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  const std::string code = envelope->at("code").as_string();
  if (code == "deadline_exceeded") {
    rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
  }
  latency_.record(obs::now_us() - out.start_us);
  std::string response_line = envelope->at("line").as_string();
  response_line += '\n';
  enqueue_output(out.conn, response_line);
  release_admission(out.tenant);
  out.conn->pending.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::fail_outstanding(uint64_t seq, const std::string& message) {
  auto it = outstanding_.find(seq);
  if (it == outstanding_.end()) return;
  Outstanding out = std::move(it->second);
  outstanding_.erase(it);
  worker_failures_.fetch_add(1, std::memory_order_relaxed);
  respond_error(out.conn, out.id, "worker_failed", message);
  release_admission(out.tenant);
  out.conn->pending.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::reap_workers() {
  for (;;) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) break;
    size_t index = slots_.size();
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].pid == pid) {
        index = i;
        break;
      }
    }
    if (index == slots_.size()) continue;  // not ours (no other children)
    WorkerSlot& slot = slots_[index];
    const bool expected = draining_.load(std::memory_order_acquire) &&
                          outstanding_.empty() && undispatched_.empty();
    slot.alive = false;
    slot.pid = -1;
    close_fd(slot.fd);
    slot.inbuf.clear();
    slot.outbuf.clear();
    std::vector<uint64_t> orphans = std::move(slot.owned);
    slot.owned.clear();
    if (!expected) {
      obs::count("server.worker.exit", "server", 1);
      log_line("llhscd: worker w" + std::to_string(index) + " pid " +
               std::to_string(pid) + " died (status " +
               std::to_string(status) + "), " +
               std::to_string(orphans.size()) + " request(s) orphaned");
    }
    // Orphaned requests: a stats probe completes without this worker's
    // numbers; a check/session retries once on a surviving worker (pure
    // function of the request), then errors explicitly. Nothing is ever
    // silently dropped.
    for (uint64_t seq : orphans) {
      if (stats_waiters_.count(seq) != 0) {
        finish_stats(seq, nullptr);
        continue;
      }
      auto it = outstanding_.find(seq);
      if (it == outstanding_.end()) continue;
      if (!it->second.retried) {
        it->second.retried = true;
        obs::count("server.worker.retry", "server", 1);
        dispatch_to_worker(seq);
      } else {
        fail_outstanding(seq,
                         "worker died twice while serving this request");
      }
    }
    const bool need_replacement =
        !draining_.load(std::memory_order_acquire) ||
        !outstanding_.empty() || !undispatched_.empty();
    if (need_replacement && spawn_worker(index)) {
      ++worker_restarts_;
      obs::count("server.worker.restart", "server", 1);
      std::deque<uint64_t> parked;
      parked.swap(undispatched_);
      for (uint64_t seq : parked) dispatch_to_worker(seq);
    }
  }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void Server::accept_ready(int listen_fd, bool tcp) {
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error; poll again
    }
    net::set_nonblocking(client);
    if (tcp) net::set_tcp_nodelay(client);
    obs::count(tcp ? "server.accept.tcp" : "server.accept.unix", "server", 1);
    connections_.push_back(std::make_shared<Connection>(
        client, tcp, net::describe_peer(client, tcp)));
  }
}

void Server::connection_readable(const std::shared_ptr<Connection>& conn) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      conn->read_closed = true;
      break;
    }
    conn->inbuf.append(chunk, static_cast<size_t>(n));
    for (;;) {
      if (conn->discarding) {
        const size_t pos = conn->inbuf.find('\n');
        if (pos == std::string::npos) {
          conn->inbuf.clear();
          break;
        }
        conn->inbuf.erase(0, pos + 1);
        conn->discarding = false;
      }
      const size_t pos = conn->inbuf.find('\n');
      if (pos == std::string::npos) {
        if (conn->inbuf.size() > options_.max_line_bytes) {
          // Oversized frame: reject, drop what we have, and resynchronise
          // at the next newline so the connection stays usable.
          requests_total_.fetch_add(1, std::memory_order_relaxed);
          rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
          respond_error(conn, Json::null(), "too_large",
                        "request line exceeds " +
                            std::to_string(options_.max_line_bytes) +
                            " bytes");
          conn->inbuf.clear();
          conn->discarding = true;
        }
        break;
      }
      std::string line = conn->inbuf.substr(0, pos);
      conn->inbuf.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line.size() > options_.max_line_bytes) {
        requests_total_.fetch_add(1, std::memory_order_relaxed);
        rejected_bad_request_.fetch_add(1, std::memory_order_relaxed);
        respond_error(conn, Json::null(), "too_large",
                      "request line exceeds " +
                          std::to_string(options_.max_line_bytes) + " bytes");
        continue;
      }
      handle_line(conn, line);
    }
    if (conn->read_closed || conn->closed) break;
  }
}

void Server::flush_connection(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->closed || conn->fd < 0) return;
  while (!conn->outbuf.empty()) {
    const ssize_t n = ::send(conn->fd, conn->outbuf.data(),
                             conn->outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbuf.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn->closed = true;
    conn->outbuf.clear();
    break;
  }
}

void Server::prune_connections() {
  for (size_t i = 0; i < connections_.size();) {
    const std::shared_ptr<Connection>& conn = connections_[i];
    bool remove = false;
    {
      std::lock_guard<std::mutex> lock(conn->write_mutex);
      const bool idle = conn->read_closed &&
                        conn->pending.load(std::memory_order_acquire) == 0 &&
                        conn->outbuf.empty();
      if (conn->closed || idle) {
        close_fd(conn->fd);
        remove = true;
      }
    }
    if (remove) {
      connections_.erase(connections_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
}

void Server::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  size_t in_flight = admitted_.load() + outstanding_.size();
  log_line("llhscd: draining (" + std::to_string(in_flight) +
           " request(s) in flight)");
  close_fd(listen_unix_fd_);
  close_fd(listen_tcp_fd_);
  // Shut the read side only: no new requests; in-flight responses still go
  // out on the write side.
  for (const auto& conn : connections_) {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (!conn->closed && conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  }
}

bool Server::drain_complete() {
  if (admitted_.load(std::memory_order_acquire) != 0) return false;
  if (!outstanding_.empty() || !undispatched_.empty() ||
      !stats_waiters_.empty()) {
    return false;
  }
  for (const auto& conn : connections_) {
    if (conn->pending.load(std::memory_order_acquire) != 0) return false;
  }
  return true;
}

void Server::final_flush() {
  // Best-effort: give slow readers a bounded window to take their last
  // responses; a peer that never reads cannot wedge shutdown.
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool pending = false;
    for (const auto& conn : connections_) {
      flush_connection(conn);
      std::lock_guard<std::mutex> lock(conn->write_mutex);
      if (!conn->closed && conn->fd >= 0 && !conn->outbuf.empty()) {
        pending = true;
      }
    }
    if (!pending || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

int Server::setup_listeners() {
  if (options_.socket_path.empty() && options_.tcp_listen.empty()) {
    log_line("llhscd: no listener configured (need --socket or --listen)");
    return 2;
  }
  if (!options_.socket_path.empty()) {
    if (options_.socket_path.size() >= 108) {
      log_line("llhscd: socket path too long: " + options_.socket_path);
      return 2;
    }
    // Never steal a live daemon's socket: if something is accepting on the
    // path, refuse to start. Only a stale socket file — one that refuses
    // connections (or nothing at all) — is unlinked before bind.
    if (net::unix_socket_is_live(options_.socket_path)) {
      log_line("llhscd: " + options_.socket_path +
               " is served by a running daemon; refusing to start");
      return 2;
    }
    std::string error;
    listen_unix_fd_ = net::listen_unix(options_.socket_path, &error);
    if (listen_unix_fd_ < 0) {
      log_line("llhscd: " + error);
      return 2;
    }
    net::set_nonblocking(listen_unix_fd_);
  }
  if (!options_.tcp_listen.empty()) {
    std::string host;
    uint16_t port = 0;
    std::string error;
    if (!net::parse_listen_spec(options_.tcp_listen, &host, &port, &error)) {
      log_line("llhscd: bad --listen '" + options_.tcp_listen + "': " +
               error);
      close_fd(listen_unix_fd_);
      return 2;
    }
    uint16_t bound = 0;
    listen_tcp_fd_ = net::listen_tcp(host, port, &bound, &error);
    if (listen_tcp_fd_ < 0) {
      log_line("llhscd: " + error);
      close_fd(listen_unix_fd_);
      return 2;
    }
    net::set_nonblocking(listen_tcp_fd_);
    tcp_port_.store(bound, std::memory_order_release);
  }
  return 0;
}

void Server::event_loop() {
  struct PollRef {
    enum Kind { kStop, kWake, kUnixListen, kTcpListen, kWorker, kConn } kind;
    size_t index;
    int fd;
  };
  std::vector<pollfd> fds;
  std::vector<PollRef> refs;
  for (;;) {
    fds.clear();
    refs.clear();
    fds.push_back({stop_pipe_read_, POLLIN, 0});
    refs.push_back({PollRef::kStop, 0, stop_pipe_read_});
    fds.push_back({wake_pipe_read_, POLLIN, 0});
    refs.push_back({PollRef::kWake, 0, wake_pipe_read_});
    if (!draining_.load(std::memory_order_acquire)) {
      if (listen_unix_fd_ >= 0) {
        fds.push_back({listen_unix_fd_, POLLIN, 0});
        refs.push_back({PollRef::kUnixListen, 0, listen_unix_fd_});
      }
      if (listen_tcp_fd_ >= 0) {
        fds.push_back({listen_tcp_fd_, POLLIN, 0});
        refs.push_back({PollRef::kTcpListen, 0, listen_tcp_fd_});
      }
    }
    for (size_t i = 0; i < slots_.size(); ++i) {
      WorkerSlot& slot = slots_[i];
      if (!slot.alive || slot.fd < 0) continue;
      short events = POLLIN;
      if (!slot.outbuf.empty()) events |= POLLOUT;
      fds.push_back({slot.fd, events, 0});
      refs.push_back({PollRef::kWorker, i, slot.fd});
    }
    for (size_t i = 0; i < connections_.size(); ++i) {
      const auto& conn = connections_[i];
      short events = 0;
      {
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        if (conn->closed || conn->fd < 0) continue;
        if (!conn->read_closed) events |= POLLIN;
        if (!conn->outbuf.empty()) events |= POLLOUT;
      }
      if (events == 0) continue;
      fds.push_back({conn->fd, events, 0});
      refs.push_back({PollRef::kConn, i, conn->fd});
    }

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }

    // Stop/child bytes first: a drain or a reap changes how the other
    // events should be interpreted.
    if ((fds[0].revents & POLLIN) != 0) {
      char bytes[256];
      bool drain = false;
      bool reap = false;
      for (;;) {
        const ssize_t n = ::read(stop_pipe_read_, bytes, sizeof(bytes));
        if (n <= 0) break;
        for (ssize_t b = 0; b < n; ++b) {
          if (bytes[b] == kChildByte) {
            reap = true;
          } else {
            drain = true;
          }
        }
        if (n < static_cast<ssize_t>(sizeof(bytes))) break;
      }
      if (reap) reap_workers();
      if (drain) begin_drain();
    }
    if ((fds[1].revents & POLLIN) != 0) {
      char bytes[256];
      while (::read(wake_pipe_read_, bytes, sizeof(bytes)) ==
             static_cast<ssize_t>(sizeof(bytes))) {
      }
    }

    for (size_t i = 2; i < fds.size(); ++i) {
      const short revents = fds[i].revents;
      if (revents == 0) continue;
      const PollRef& ref = refs[i];
      switch (ref.kind) {
        case PollRef::kStop:
        case PollRef::kWake:
          break;
        case PollRef::kUnixListen:
          if (listen_unix_fd_ == ref.fd && (revents & POLLIN) != 0) {
            accept_ready(listen_unix_fd_, /*tcp=*/false);
          }
          break;
        case PollRef::kTcpListen:
          if (listen_tcp_fd_ == ref.fd && (revents & POLLIN) != 0) {
            accept_ready(listen_tcp_fd_, /*tcp=*/true);
          }
          break;
        case PollRef::kWorker: {
          WorkerSlot& slot = slots_[ref.index];
          // A reap earlier this iteration may have replaced the slot's fd;
          // stale events must not be applied to the new channel.
          if (slot.fd != ref.fd || !slot.alive) break;
          if ((revents & POLLOUT) != 0) flush_worker(slot);
          if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            worker_readable(slot);
          }
          break;
        }
        case PollRef::kConn: {
          if (ref.index >= connections_.size()) break;
          const auto& conn = connections_[ref.index];
          if (conn->fd != ref.fd) break;
          if ((revents & POLLOUT) != 0) flush_connection(conn);
          if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
              !conn->read_closed) {
            connection_readable(conn);
          }
          break;
        }
      }
    }

    prune_connections();
    if (draining_.load(std::memory_order_acquire) && drain_complete()) break;
  }
}

int Server::run() {
  const int setup_rc = setup_listeners();
  if (setup_rc != 0) return setup_rc;

  int stop_fds[2];
  int wake_fds[2];
  if (::pipe(stop_fds) < 0) {
    log_line("llhscd: cannot create stop pipe: " +
             std::string(std::strerror(errno)));
    close_fd(listen_unix_fd_);
    close_fd(listen_tcp_fd_);
    return 2;
  }
  if (::pipe(wake_fds) < 0) {
    log_line("llhscd: cannot create wake pipe: " +
             std::string(std::strerror(errno)));
    ::close(stop_fds[0]);
    ::close(stop_fds[1]);
    close_fd(listen_unix_fd_);
    close_fd(listen_tcp_fd_);
    return 2;
  }
  stop_pipe_read_ = stop_fds[0];
  stop_pipe_write_.store(stop_fds[1], std::memory_order_release);
  wake_pipe_read_ = wake_fds[0];
  wake_pipe_write_ = wake_fds[1];
  net::set_nonblocking(stop_pipe_read_);
  net::set_nonblocking(stop_fds[1]);
  net::set_nonblocking(wake_pipe_read_);
  net::set_nonblocking(wake_pipe_write_);
  g_signal_pipe.store(stop_fds[1], std::memory_order_relaxed);

  struct sigaction sa{};
  sa.sa_handler = llhscd_signal_handler;
  sigemptyset(&sa.sa_mask);
  struct sigaction old_int{};
  struct sigaction old_term{};
  struct sigaction old_chld{};
  ::sigaction(SIGINT, &sa, &old_int);
  ::sigaction(SIGTERM, &sa, &old_term);

  std::string execution;
  if (options_.workers > 0) {
    // Forked mode: install SIGCHLD before the first fork so no exit is
    // missed, then spawn the shard workers. The front end stays
    // single-threaded, which keeps the restart forks safe.
    struct sigaction chld{};
    chld.sa_handler = llhscd_sigchld_handler;
    sigemptyset(&chld.sa_mask);
    chld.sa_flags = SA_NOCLDSTOP;
    ::sigaction(SIGCHLD, &chld, &old_chld);
    slots_.resize(options_.workers);
    for (unsigned i = 0; i < options_.workers; ++i) {
      if (!spawn_worker(i)) {
        log_line("llhscd: cannot start workers");
        // Kill whatever came up; clients were never accepted yet.
        for (WorkerSlot& slot : slots_) {
          close_fd(slot.fd);
          if (slot.pid > 0) {
            ::kill(slot.pid, SIGKILL);
            ::waitpid(slot.pid, nullptr, 0);
          }
        }
        ::sigaction(SIGINT, &old_int, nullptr);
        ::sigaction(SIGTERM, &old_term, nullptr);
        ::sigaction(SIGCHLD, &old_chld, nullptr);
        g_signal_pipe.store(-1, std::memory_order_relaxed);
        close_fd(listen_unix_fd_);
        close_fd(listen_tcp_fd_);
        return 2;
      }
    }
    if (!options_.profile_path.empty()) {
      log_line(
          "llhscd: --profile is not exported in --workers mode (checks run "
          "in worker processes)");
    }
    execution = std::to_string(options_.workers) + " worker processes";
  } else {
    pool_ = std::make_unique<support::ThreadPool>(
        support::ThreadPool::resolve_jobs(options_.jobs));
    execution = std::to_string(pool_->size()) + " workers";
  }

  std::string where;
  if (!options_.socket_path.empty()) where = options_.socket_path;
  if (listen_tcp_fd_ >= 0) {
    if (!where.empty()) where += " + ";
    where += "tcp port " + std::to_string(tcp_port());
  }
  log_line("llhscd: listening on " + where + " (" + execution +
           ", queue limit " + std::to_string(options_.queue_limit) + ")");

  event_loop();

  // -- Drain epilogue: the loop exits only once every admitted request has
  // responded (drain_complete), so what is left is flushing buffers and
  // tearing down execution. --
  if (pool_ != nullptr) {
    pool_->wait_idle();
  }
  final_flush();
  for (size_t i = 0; i < slots_.size(); ++i) {
    WorkerSlot& slot = slots_[i];
    // Channel EOF tells the worker to drain its pool and exit 0.
    close_fd(slot.fd);
    if (slot.pid > 0) {
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
      slot.pid = -1;
    }
  }
  connections_.clear();
  pool_.reset();

  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  if (options_.workers > 0) ::sigaction(SIGCHLD, &old_chld, nullptr);
  g_signal_pipe.store(-1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stop_pipe_mutex_);
    stop_pipe_write_.store(-1, std::memory_order_release);
    ::close(stop_fds[1]);
  }
  close_fd(stop_pipe_read_);
  close_fd(wake_pipe_read_);
  wake_pipe_write_ = -1;
  ::close(wake_fds[1]);
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
  if (!options_.profile_path.empty() && options_.workers == 0) {
    if (obs::write_chrome_trace(options_.profile_path,
                                profile_sink_.take())) {
      log_line("llhscd: profile written to " + options_.profile_path);
    } else {
      log_line("llhscd: cannot write profile to " + options_.profile_path);
    }
  }
  log_line("llhscd: drained, bye");
  return 0;
}

}  // namespace llhsc::server
