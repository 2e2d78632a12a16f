// daemon-mixed: llhscd in its default deployment (one process, in-process
// pool) and one client connection in a closed loop, because editor and CI
// callers wait for their reply. The seeded mix is mostly repeat checks of
// one unchanged board (store hits) and partly checks of freshly edited
// boards (cold parse and check).
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// The daemon's store capacity, per class. It is small enough that the
/// store's first-in first-out eviction reaches a steady state early in the
/// run, so the daemon's peak RSS reads that steady state, not how many cold
/// requests a run fitted (the default, 512, would still be filling).
constexpr const char* kStoreCapacity = "64";

/// One request in kColdEvery is an edited board; the rest repeat.
constexpr uint64_t kColdEvery = 5;
constexpr uint64_t kRepeatPerMille = 1000 - 1000 / kColdEvery;

struct BoardText {
  std::string file;
  std::string source;
  uint64_t nodes = 0;
  FindingKeys expected;
};

struct DaemonInput {
  BoardText base;
  std::vector<BoardText> edits;  // sources hold an @REV@ placeholder
};

DaemonInput load_input(const Options& opts, const Json& manifest) {
  const Json& d = manifest.at("daemon");
  DaemonInput in;
  in.base.file = d.at("base").as_string();
  in.base.source = read_file(opts.inputs + "/" + in.base.file);
  in.base.nodes = d.at("base_nodes").as_uint();
  in.base.expected = expected_keys(d.at("base_expected"));
  for (const Json& e : d.at("edits").items()) {
    BoardText b;
    b.file = e.at("file").as_string();
    b.source = read_file(opts.inputs + "/" + b.file);
    b.nodes = e.at("nodes").as_uint();
    b.expected = expected_keys(e.at("expected"));
    if (b.source.find("@REV@") == std::string::npos) {
      throw std::runtime_error("daemon-mixed: " + b.file + " has no @REV@");
    }
    in.edits.push_back(std::move(b));
  }
  if (d.at("repeat_share_per_mille").as_uint() != kRepeatPerMille) {
    throw std::runtime_error("daemon-mixed: unexpected repeat share");
  }
  return in;
}

/// One client connection speaking the line-delimited wire protocol.
class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("bad socket path " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends one request line and waits for its reply.
  std::optional<Json> call(const Json& request) {
    const std::string line = request.dump() + "\n";
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n <= 0) return std::nullopt;
      off += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::optional<Json> reply = Json::parse(buffer_.substr(0, nl));
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

Json method_request(uint64_t id, const char* method) {
  Json req = Json::object();
  req.set("id", Json::unsigned_integer(id));
  req.set("method", Json::string(method));
  return req;
}

/// A running llhscd child; the destructor drains it.
class Daemon {
 public:
  Daemon(const Options& opts, const std::string& tag,
         const std::string& profile = "") {
    socket_ = opts.workdir + "/" + tag + ".sock";
    if (socket_.size() >= sizeof(sockaddr_un::sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_);
    }
    std::vector<std::string> args = {opts.llhscd, "--socket", socket_,
                                     "--store-capacity", kStoreCapacity,
                                     "--log-file",
                                     opts.workdir + "/" + tag + ".log"};
    if (!profile.empty()) {
      args.push_back("--profile");
      args.push_back(profile);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    if (posix_spawn(&pid_, opts.llhscd.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
      throw std::runtime_error("cannot spawn llhscd");
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects (retrying while the daemon binds) and completes `hello`.
  std::unique_ptr<Connection> connect_hello() {
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      auto conn = std::make_unique<Connection>(socket_);
      if (conn->connected()) {
        auto reply = conn->call(method_request(0, "hello"));
        if (reply && reply->at("ok").as_bool()) return conn;
        throw std::runtime_error("llhscd: hello failed");
      }
      if (seconds_since(t0) > 60) {
        throw std::runtime_error("llhscd: no socket");
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("llhscd exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] int pid() const { return pid_; }

  /// Drains the daemon through a `shutdown` request and reaps it.
  void stop() {
    if (pid_ < 0) return;
    try {
      Connection conn(socket_);
      if (conn.connected()) (void)conn.call(method_request(0, "shutdown"));
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) != pid_) {
      if (seconds_since(t0) > 30) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::string socket_;
};

double probe_daemon_setup_s(const Options& opts, int runs) {
  Samples samples;
  for (int i = 0; i < runs; ++i) {
    const Clock::time_point t0 = Clock::now();
    Daemon daemon(opts, "setup" + std::to_string(i));
    (void)daemon.connect_hello();
    samples.add(seconds_since(t0));
  }
  return samples.median();
}

struct LoadStats {
  Samples latency_ms;
  Samples cold_ms;
  Samples repeat_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok = 0;
  uint64_t repeats = 0;
  uint64_t repeat_hits = 0;
  uint64_t cold_hits = 0;
  uint64_t nodes = 0;
  double elapsed_s = 0;
  double daemon_cpu_s = 0;
};

Json check_request(uint64_t id, const BoardText& b,
                   const std::string& source) {
  Json params = Json::object();
  params.set("path", Json::string(b.file));
  params.set("source", Json::string(source));
  params.set("format", Json::string("json"));
  Json req = method_request(id, "check");
  req.set("params", std::move(params));
  return req;
}

/// True when a check reply is ok and matches the known answer.
bool reply_ok(const std::optional<Json>& reply, const BoardText& b) {
  if (!reply || !reply->at("ok").as_bool()) return false;
  FindingKeys got;
  if (!report_keys(reply->at("result").at("stdout").as_string(), got) ||
      got != b.expected) {
    std::cerr << "perfbench: daemon reply for " << b.file
              << " differs from the known answer\n";
    return false;
  }
  return true;
}

bool cache_hit(const Json& reply) {
  return reply.at("result").at("trace").at("check_cache_hit").as_bool();
}

/// Closed-loop load from one client connection for `seconds`: the next
/// request goes out when the previous reply is in, as an editor or CI caller
/// waits for its verdict. One connection keeps the host's CPUs for the
/// daemon, so the figures measure llhscd rather than the scheduler.
LoadStats run_load(const Options& opts, const DaemonInput& in, Daemon& daemon,
                   double seconds, uint64_t stream) {
  // Warm the store with the unchanged board first, so repeats hit.
  {
    auto conn = daemon.connect_hello();
    if (!reply_ok(conn->call(check_request(1, in.base, in.base.source)),
                  in.base)) {
      throw std::runtime_error("daemon-mixed: warm-up check failed");
    }
  }
  LoadStats st;
  std::mt19937_64 rng(opts.seed * 1000003 + stream * 101);
  uint64_t revision = stream * 1000000;
  Connection conn(daemon.socket());
  if (!conn.connected()) {
    throw std::runtime_error("daemon-mixed: cannot connect");
  }
  uint64_t id = 100;
  const double cpu0 = cpu_seconds(daemon.pid());
  const Clock::time_point t0 = Clock::now();
  // A fixed cadence with a seeded phase, so edited boards arrive evenly
  // rather than in random bursts. The edited boards take turns from a
  // seeded first one: a random pick would vary each board's share of a
  // run, and with it the cold median, since the boards differ in cost.
  const uint64_t phase = rng() % kColdEvery;
  uint64_t next_edit = rng() % in.edits.size();
  for (uint64_t n = phase; seconds_since(t0) < seconds; ++n) {
    const bool repeat = n % kColdEvery != 0;
    const BoardText* b = &in.base;
    std::string source = in.base.source;
    if (!repeat) {
      b = &in.edits[next_edit++ % in.edits.size()];
      source = with_revision(b->source, revision++);
    }
    const Json req = check_request(++id, *b, source);
    const Clock::time_point s = Clock::now();
    const std::optional<Json> reply = conn.call(req);
    const double ms = ms_since(s);
    ++st.attempted;
    if (!reply) {
      // The connection broke: count it and stop the load.
      ++st.failed;
      break;
    }
    if (!reply_ok(reply, *b)) {
      ++st.failed;
      continue;
    }
    ++st.ok;
    st.nodes += b->nodes;
    st.latency_ms.add(ms);
    if (repeat) {
      ++st.repeats;
      st.repeat_hits += cache_hit(*reply) ? 1 : 0;
      st.repeat_ms.add(ms);
    } else {
      st.cold_hits += cache_hit(*reply) ? 1 : 0;
      st.cold_ms.add(ms);
    }
  }
  st.elapsed_s = seconds_since(t0);
  st.daemon_cpu_s = cpu_seconds(daemon.pid()) - cpu0;
  return st;
}

Json stats_reply(Daemon& daemon) {
  auto conn = daemon.connect_hello();
  auto reply = conn->call(method_request(2, "stats"));
  if (!reply || !reply->at("ok").as_bool()) {
    throw std::runtime_error("daemon-mixed: stats failed");
  }
  return reply->at("result");
}

}  // namespace

void run_daemon_mixed(const Options& opts, const Json& manifest, Result& out) {
  const DaemonInput in = load_input(opts, manifest);
  out.metric("setup_s", probe_daemon_setup_s(opts, 25), "s");

  Daemon daemon(opts, "load");
  const LoadStats st = run_load(opts, in, daemon, opts.seconds, 1);
  const Json stats = stats_reply(daemon);
  const double rss = peak_rss_mb(daemon.pid());
  daemon.stop();

  out.attempted += st.attempted;
  out.failed += st.failed;
  out.self_check(stats.at("check_counters").at("solver_checks").as_uint() > 0,
                 "daemon-mixed: the cold share issued no solver checks");
  const double share = st.ok > 0 ? static_cast<double>(st.repeats) /
                                       static_cast<double>(st.ok)
                                 : 0;
  out.self_check(std::abs(share - kRepeatPerMille / 1000.0) < 0.01,
                 "daemon-mixed: the repeat share strays from the seeded mix");
  // The store evicts first-in first-out per class, so the unchanged board
  // is rebuilt once every kStoreCapacity cold requests: nearly every
  // repeat hits, and no edited board may.
  out.self_check(st.cold_hits == 0 && st.repeat_hits * 100 >= st.repeats * 99,
                 "daemon-mixed: the store hit share does not match the mix");

  out.metric("latency_ms.p50", st.latency_ms.median(), "ms");
  out.metric("latency_ms.tail", st.latency_ms.tail(), "ms");
  out.metric("throughput_per_s", static_cast<double>(st.ok) / st.elapsed_s,
             "1/s");
  out.metric("nodes_per_s", static_cast<double>(st.nodes) / st.elapsed_s,
             "1/s");
  out.metric("cold_ms", st.cold_ms.median(), "ms");
  out.metric("peak_rss_mb", rss, "MB");
  Json d = Json::object();
  d.set("samples", Json::unsigned_integer(st.latency_ms.size()));
  d.set("tail_percentile", Json::number(st.latency_ms.tail_percentile()));
  d.set("cold_samples", Json::unsigned_integer(st.cold_ms.size()));
  d.set("repeat_share", Json::number(share));
  d.set("repeat_misses", Json::unsigned_integer(st.repeats - st.repeat_hits));
  out.detail.set("daemon-mixed", std::move(d));
}

void trace_daemon_mixed(const Options& opts, const Json& manifest,
                        const TraceSlice& slice, SpanLog& spans, Result& out) {
  const DaemonInput in = load_input(opts, manifest);
  double plain_mean_ms = 0;
  double seconds = slice.seconds;
  if (slice.measure_overhead) {
    seconds /= 2;
    Daemon plain(opts, "plain");
    const LoadStats st = run_load(opts, in, plain, seconds, 2);
    out.attempted += st.attempted;
    out.failed += st.failed;
    plain_mean_ms = st.latency_ms.mean();
  }

  const std::string profile = opts.workdir + "/daemon-profile.json";
  std::remove(profile.c_str());
  Daemon daemon(opts, "traced", profile);
  const int span = spans.open("daemon load");
  const LoadStats st = run_load(opts, in, daemon, seconds, 3);
  spans.close(span);
  const Json stats = stats_reply(daemon);
  daemon.stop();
  out.attempted += st.attempted;
  out.failed += st.failed;

  auto parsed = Json::parse(read_file(profile));
  if (!parsed) throw std::runtime_error("daemon-mixed: unreadable profile");
  // Service spans of check requests; a service span with a syntactic stage
  // nested on its thread did the checking, one without was a store hit.
  struct Interval {
    uint64_t tid, ts, dur;
  };
  std::vector<Interval> stages, waits, services;
  for (const Json& e : parsed->at("traceEvents").items()) {
    const std::string& name = e.at("name").as_string();
    const Interval iv{e.at("tid").as_uint(), e.at("ts").as_uint(),
                      e.at("dur").as_uint()};
    if (name == "stage.syntactic") stages.push_back(iv);
    if ((name == "request.wait" || name == "request.service") &&
        e.at("args").at("method").as_string() == "check") {
      (name == "request.wait" ? waits : services).push_back(iv);
    }
  }
  Samples wait_ms, service_ms, hit_wait_ms, hit_service_ms;
  // A request's wait ends just before its service span starts on the same
  // thread (two clock reads apart), so each service pairs with the latest
  // wait on its thread that ends at or before its start.
  std::map<uint64_t, std::map<uint64_t, double>> wait_by_end;  // tid, end
  for (const Interval& w : waits) {
    wait_ms.add(static_cast<double>(w.dur) / 1e3);
    wait_by_end[w.tid][w.ts + w.dur] = static_cast<double>(w.dur) / 1e3;
  }
  uint64_t unmatched_hits = 0;
  for (const Interval& s : services) {
    service_ms.add(static_cast<double>(s.dur) / 1e3);
    const bool cold = std::any_of(stages.begin(), stages.end(),
                                  [&](const Interval& st) {
                                    return st.tid == s.tid && st.ts >= s.ts &&
                                           st.ts <= s.ts + s.dur;
                                  });
    if (cold) continue;
    hit_service_ms.add(static_cast<double>(s.dur) / 1e3);
    const auto& ends = wait_by_end[s.tid];
    const auto w = ends.upper_bound(s.ts);
    if (w == ends.begin()) {
      ++unmatched_hits;
      continue;
    }
    hit_wait_ms.add(std::prev(w)->second);
  }
  out.self_check(hit_wait_ms.size() > 0,
                 "daemon-mixed: no store-hit request's service span pairs "
                 "with its wait span");

  const uint64_t hits = stats.at("store").at("hits").as_uint();
  const uint64_t misses = stats.at("store").at("misses").as_uint();
  out.metric("server.store.hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0,
             "ratio");
  out.metric("server.request.wait_ms.p50", wait_ms.median(), "ms");
  out.metric("server.request.wait_ms.tail", wait_ms.tail(), "ms");
  out.metric("server.request.service_ms.p50", service_ms.median(), "ms");
  out.metric("server.relay_ms.p50",
             st.repeat_ms.median() - hit_wait_ms.median() -
                 hit_service_ms.median(),
             "ms");
  const double cpu_capacity_s =
      st.elapsed_s * static_cast<double>(cpu_count());
  out.metric("server.cpu_util", st.daemon_cpu_s / cpu_capacity_s, "ratio");
  if (slice.measure_overhead) {
    out.metric("obs.trace_overhead",
               plain_mean_ms > 0 ? st.latency_ms.mean() / plain_mean_ms - 1.0
                                 : 0,
               "ratio");
  }
  Json d = Json::object();
  d.set("profiled_requests", Json::unsigned_integer(service_ms.size()));
  d.set("hit_requests", Json::unsigned_integer(hit_service_ms.size()));
  d.set("hit_waits_matched", Json::unsigned_integer(hit_wait_ms.size()));
  d.set("hit_waits_unmatched", Json::unsigned_integer(unmatched_hits));
  d.set("wait_tail_percentile", Json::number(wait_ms.tail_percentile()));
  out.detail.set("trace.daemon-mixed", std::move(d));
}

}  // namespace perfbench
