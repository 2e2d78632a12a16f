// llhscd — the long-running check daemon. Line-delimited JSON over a
// Unix-domain socket and/or TCP:
//
//   request:  {"id": <any>, "method": "ping"|"hello"|"check"|"session"|
//              "stats"|"healthz"|"shutdown", "params": {...},
//              "deadline_ms": <int>, "tenant": <string>}\n
//   response: {"id": <echoed>, "ok": true, "result": {...}}\n
//           | {"id": <echoed>, "ok": false,
//              "error": {"code": "bad_request"|"too_large"|"overloaded"|
//                        "quota_exceeded"|"shutting_down"|
//                        "deadline_exceeded"|"worker_failed",
//                        "message": "..."}}\n
//
// Architecture (PR 10): a single-threaded poll(2) event loop owns every
// client connection — it accepts on the Unix and TCP listeners, frames
// request lines from non-blocking reads, and flushes buffered responses.
// Two execution modes sit behind it:
//
//   * in-process (workers == 0, the default): admitted check/session work
//     runs on a shared support::ThreadPool inside this process, exactly as
//     before — pool threads enqueue response bytes and wake the loop.
//   * forked workers (--workers N): the loop doubles as a supervisor. It
//     forks N worker processes (each with its own ArtifactStore and thread
//     pool) connected by socketpairs, shards admitted requests to them by
//     content hash (same source -> same worker -> hot store), and relays
//     each worker's response line to the client verbatim — so responses
//     stay byte-identical to the one-shot CLI by construction. A worker
//     that dies (kill -9, crash) is reaped via SIGCHLD, its in-flight
//     requests are retried once on a surviving worker (check/session are
//     pure functions of their request), and a replacement is forked.
//     On-disk state shared across workers (the qc1 query cache) uses
//     flock single-writer discipline with lock-free readers.
//
// Admission is bounded globally (queue_limit -> `overloaded`) and, when
// tenant_quota is set, per tenant (`quota_exceeded`; the tenant is the
// request's "tenant" field). Lines longer than max_line_bytes are rejected
// with `too_large` and the connection resynchronises at the next newline.
//
// Wire versioning: v1 replies (ping/check/session/shutdown/errors and
// in-process stats) are stamped schema_version 1 and stay byte-identical
// across releases; the new surfaces that expose worker/tenant/transport
// details — `hello`, `healthz`, and worker-mode `stats` — are stamped 2.
//
// Shutdown is a drain: stop accepting, shut down the read side of every
// connection, let admitted requests finish and respond (workers drain via
// channel EOF), then unlink the socket and return 0. A `shutdown` request
// triggers the same path.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"
#include "server/artifact_store.hpp"
#include "server/histogram.hpp"
#include "support/json.hpp"
#include "server/runner.hpp"
#include "support/thread_pool.hpp"

namespace llhsc::server {

/// The wire protocol generation reported by `hello`.
constexpr int kProtocolVersion = 2;

struct ServerOptions {
  /// Unix-domain listener path ("" = no Unix listener; at least one of
  /// socket_path / tcp_listen must be set).
  std::string socket_path;
  /// TCP listener as "host:port", ":port" or "port" (port 0 = ephemeral;
  /// "" = no TCP listener).
  std::string tcp_listen;
  /// Forked worker processes (0 = run check/session work in-process).
  unsigned workers = 0;
  /// Worker threads for check/session execution (0 = hardware concurrency).
  /// In forked mode this sizes each worker's pool.
  unsigned jobs = 0;
  /// Admitted (queued + running) check/session requests beyond this are
  /// rejected with `overloaded`.
  size_t queue_limit = 64;
  /// Per-tenant admitted cap (0 = unlimited). Requests carry their tenant
  /// in the optional "tenant" field; absent means the "" tenant.
  size_t tenant_quota = 0;
  /// Deadline applied to requests that do not carry their own deadline_ms
  /// (0 = unlimited).
  uint64_t default_deadline_ms = 0;
  /// Per-class ArtifactStore capacity (per worker in forked mode).
  size_t store_capacity = 512;
  /// Request lines longer than this are rejected with `too_large`.
  size_t max_line_bytes = 64 * 1024 * 1024;
  /// Trace/log sink; null = stderr.
  std::ostream* log = nullptr;
  /// Chrome-trace profile written at shutdown ("" = no profiling).
  /// In-process mode only: forked workers run their checks in other
  /// processes, so their spans are not exported (a warning is logged).
  std::string profile_path;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, serves until a signal / shutdown request / stop(),
  /// drains, unlinks the socket. Returns 0 on clean shutdown, 2 on setup
  /// failure. Installs SIGINT/SIGTERM (and, with workers, SIGCHLD)
  /// handlers for the duration.
  int run();

  /// Thread-safe: asks a running server to drain and stop.
  void request_stop();

  /// The bound socket path (for tests).
  [[nodiscard]] const std::string& socket_path() const {
    return options_.socket_path;
  }

  /// The bound TCP port once listening (0 before bind / without TCP). With
  /// `tcp_listen` port 0 this is how tests learn the ephemeral port.
  [[nodiscard]] uint16_t tcp_port() const {
    return tcp_port_.load(std::memory_order_acquire);
  }

 private:
  struct Connection {
    Connection(int fd, bool tcp, std::string peer)
        : fd(fd), tcp(tcp), peer(std::move(peer)) {}
    ~Connection();
    int fd;
    bool tcp;
    std::string peer;  // "ip:port" for TCP, "unix" otherwise

    // Loop-thread-only framing state.
    std::string inbuf;
    bool discarding = false;  // dropping bytes until the next newline
    bool read_closed = false;

    /// Guards outbuf/closed: in-process pool threads append responses
    /// concurrently with the loop's flushes.
    std::mutex write_mutex;
    std::string outbuf;
    bool closed = false;  // peer gone; fd is closed by the loop only

    /// Admitted requests still owing this connection a response.
    std::atomic<size_t> pending{0};
  };

  /// One forked worker process and its supervisor-side channel state.
  /// Loop-thread-only (the forked front end stays single-threaded).
  struct WorkerSlot {
    pid_t pid = -1;
    int fd = -1;  // parent end of the socketpair
    bool alive = false;
    std::string inbuf;   // envelope lines from the worker
    std::string outbuf;  // envelope bytes queued to the worker
    std::vector<uint64_t> owned;  // outstanding seqs dispatched here
  };

  /// An admitted request dispatched to a worker, kept until its response
  /// line comes back — the retry unit when a worker dies.
  struct Outstanding {
    std::shared_ptr<Connection> conn;
    support::Json id;  // echoed on a worker_failed error
    std::string tenant;
    std::string raw_line;  // the exact client line, for re-dispatch
    uint64_t shard = 0;
    bool retried = false;
    uint64_t start_us = 0;
  };

  /// A `stats` request waiting on per-worker counter snapshots.
  struct PendingStats {
    std::shared_ptr<Connection> conn;
    support::Json id;
    size_t waiting = 0;
    uint64_t checks = 0;
    uint64_t sessions = 0;
    std::map<std::string, uint64_t> check_counters;
    std::map<std::string, uint64_t> store;
  };

  // -- event loop --
  int setup_listeners();
  void event_loop();
  void accept_ready(int listen_fd, bool tcp);
  void connection_readable(const std::shared_ptr<Connection>& conn);
  void flush_connection(const std::shared_ptr<Connection>& conn);
  void prune_connections();
  void begin_drain();
  [[nodiscard]] bool drain_complete();
  void final_flush();

  // -- request handling --
  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  void handle_stats(const std::shared_ptr<Connection>& conn, const support::Json& id);
  void handle_healthz(const std::shared_ptr<Connection>& conn,
                      const support::Json& id);
  void handle_hello(const std::shared_ptr<Connection>& conn, const support::Json& id);
  void run_in_process(const std::shared_ptr<Connection>& conn, const support::Json& id,
                      const std::string& method, const support::Json& params,
                      const std::string& tenant, uint64_t deadline_ms);
  void release_admission(const std::string& tenant);

  /// Stamps the wire schema_version and enqueues one response line.
  void respond(const std::shared_ptr<Connection>& conn, support::Json response,
               int schema_version = 1);
  void respond_error(const std::shared_ptr<Connection>& conn, const support::Json& id,
                     const std::string& code, const std::string& message);
  /// Appends pre-serialised bytes to the connection's output buffer and
  /// nudges the event loop. Safe from pool threads.
  void enqueue_output(const std::shared_ptr<Connection>& conn,
                      const std::string& bytes);
  void wake_loop();

  // -- worker supervision --
  bool spawn_worker(unsigned index);
  void dispatch_to_worker(uint64_t seq);
  void flush_worker(WorkerSlot& slot);
  void worker_readable(WorkerSlot& slot);
  void handle_worker_line(WorkerSlot& slot, const std::string& line);
  void reap_workers();
  void fail_outstanding(uint64_t seq, const std::string& message);
  void send_stats_probe(uint64_t seq, WorkerSlot& slot);
  void finish_stats(uint64_t seq, const support::Json* worker_stats);
  void respond_stats_aggregate(const std::shared_ptr<PendingStats>& entry);
  [[nodiscard]] support::Json frontend_stats_errors();

  void log_line(const std::string& text);

  ServerOptions options_;
  ArtifactStore store_;  // in-process mode only (workers own theirs)
  std::unique_ptr<support::ThreadPool> pool_;

  int listen_unix_fd_ = -1;
  int listen_tcp_fd_ = -1;
  std::atomic<uint16_t> tcp_port_{0};

  int stop_pipe_read_ = -1;
  std::atomic<int> stop_pipe_write_{-1};
  /// Serialises request_stop()'s write against run()'s close of the write
  /// end (the signal handler uses its own async-signal-safe self-pipe).
  std::mutex stop_pipe_mutex_;
  int wake_pipe_read_ = -1;
  int wake_pipe_write_ = -1;
  std::atomic<bool> draining_{false};

  /// Loop-thread-only connection registry (pool threads touch only the
  /// Connection objects they hold shared_ptrs to, never this vector).
  std::vector<std::shared_ptr<Connection>> connections_;

  std::vector<WorkerSlot> slots_;
  std::unordered_map<uint64_t, Outstanding> outstanding_;
  std::deque<uint64_t> undispatched_;  // seqs waiting for an alive worker
  std::unordered_map<uint64_t, std::shared_ptr<PendingStats>> stats_waiters_;
  uint64_t next_seq_ = 1;
  uint64_t worker_restarts_ = 0;

  std::atomic<size_t> admitted_{0};  // queued + running check/session work
  /// Per-tenant admitted counts; entries are erased at zero so the map
  /// stays bounded by the number of concurrently active tenants.
  std::mutex tenants_mutex_;
  std::map<std::string, size_t> tenant_admitted_;

  // Cumulative request counters for `stats`.
  std::atomic<uint64_t> requests_total_{0};
  std::atomic<uint64_t> pings_{0};
  std::atomic<uint64_t> rejected_overloaded_{0};
  std::atomic<uint64_t> rejected_bad_request_{0};
  std::atomic<uint64_t> rejected_shutting_down_{0};
  std::atomic<uint64_t> rejected_deadline_{0};
  std::atomic<uint64_t> rejected_quota_{0};
  std::atomic<uint64_t> worker_failures_{0};
  LatencyHistogram latency_;

  /// check/session/trace counters; in-process mode accumulates here, worker
  /// mode sums the per-worker sets on demand.
  CheckCounters counters_;

  /// Per-request event streams accumulate here when profiling; exported as
  /// one Chrome trace at shutdown (in-process mode).
  obs::TraceSink profile_sink_;

  std::mutex log_mutex_;
};

}  // namespace llhsc::server
