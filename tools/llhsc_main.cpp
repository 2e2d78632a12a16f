// llhsc — the command-line tool. Thin driver over the public api::
// facade (src/api/llhsc.hpp):
//
//   llhsc check <file.dts> [--schemas <file.yaml>] [--backend builtin|z3|portfolio]
//               [--format text|json|sarif] [--no-lint] [--no-crossref]
//               [--no-graph] [--no-syntax] [--no-semantics]
//               [--disable-rule id,...]
//               [--rule-severity id=error|warning,...] [--baseline <file>]
//               [--no-plan] [--cache-dir <dir>] [--stats] [--socket <sock>]
//               [--tcp host:port] [--tenant <name>] [--profile <file>]
//       Run the checkers on one DTS; exit 1 on errors. The rule catalog
//       (cross-reference + device-graph) is in docs/rules.md; --no-graph
//       skips the device-graph dataflow rules, --baseline suppresses the
//       findings recorded in a baseline JSON file (docs/rules.md),
//       --cache-dir persists semantic solver verdicts across runs
//       (docs/performance.md), --no-plan disables the query planner,
//       --stats prints the planner counters on stderr, --socket / --tcp
//       ship the request to a running llhscd over its Unix or TCP listener
//       (--tenant names the admission-quota tenant), --profile writes a
//       Chrome-trace JSON profile of the run (docs/observability.md).
//
//   llhsc generate --core <core.dts> --deltas <file.deltas>
//                  --features f1,f2,... [--out <dir>] [--name <vm>]
//       Derive one product from a DTS product line, check it, and write
//       <name>.dts / <name>.dtb.
//
//   llhsc demo [--out <dir>] [--jobs N] [--solver-timeout-ms N]
//              [--trace-json <file>] [--verbose] [--no-plan]
//              [--cache-dir <dir>] [--profile <file>]
//       Run the paper's running example end to end and write every artifact
//       (VM DTSs, platform DTS, DTBs, platform.c, config.c). --jobs checks
//       the VMs in parallel (output is byte-identical to --jobs 1);
//       --trace-json / --verbose expose the per-stage trace, --profile the
//       raw span/counter stream it was reduced from.
//
// Exit codes (all commands): 0 success (warnings allowed), 1 findings or
// input rejected by a checker/parser, 2 usage or I/O error.
//
//   llhsc products
//       Enumerate the valid products of the running-example feature model.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "api/llhsc.hpp"
#include "checkers/battery.hpp"
#include "checkers/crossref/rules.hpp"
#include "checkers/report.hpp"
#include "core/pipeline.hpp"
#include "core/running_example.hpp"
#include "dts/overlay.hpp"
#include "dts/parser.hpp"
#include "dts/printer.hpp"
#include "fdt/fdt.hpp"
#include "feature/analysis.hpp"
#include "feature/configurator.hpp"
#include "feature/multivm.hpp"
#include "feature/text_format.hpp"
#include "lift/differential.hpp"
#include "lift/lift.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "schema/builtin_schemas.hpp"
#include "schema/yaml_lite.hpp"
#include "support/flags.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace {

using namespace llhsc;
using support::FlagKind;
using support::FlagSpec;
using support::ParsedFlags;

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return out.good();
}

bool write_file(const std::string& path, const std::vector<uint8_t>& data) {
  return write_file(path, std::string_view(
                              reinterpret_cast<const char*>(data.data()),
                              data.size()));
}

/// Parses one command's flags. Deprecation warnings always print; a parse
/// error prints and returns nullopt (the caller prints usage and exits 2).
std::optional<ParsedFlags> parse_or_report(const std::vector<FlagSpec>& specs,
                                           int argc, char** argv) {
  ParsedFlags args = support::parse_flags(specs, argc, argv, 2);
  for (const std::string& w : args.warnings) std::cerr << w << "\n";
  if (!args.ok) {
    std::cerr << args.error << "\n";
    return std::nullopt;
  }
  return args;
}

smt::Backend backend_from(const ParsedFlags& args) {
  std::string warning;
  const smt::Backend backend =
      smt::backend_from_name(args.value("backend", "builtin"), warning);
  std::cerr << warning;
  return backend;
}

schema::SchemaSet schemas_from(const ParsedFlags& args) {
  if (args.has("schemas")) {
    auto text = read_file(args.value("schemas"));
    if (!text) {
      std::cerr << "cannot open schemas file " << args.value("schemas")
                << "\n";
      std::exit(2);
    }
    support::DiagnosticEngine diags;
    schema::SchemaSet set;
    schema::load_schema_stream(*text, set, diags);
    if (diags.has_errors()) {
      std::cerr << diags.render();
      std::exit(2);
    }
    return set;
  }
  return schema::builtin_schemas();
}

std::unique_ptr<dts::Tree> parse_file_or_die(const std::string& path) {
  auto source = read_file(path);
  if (!source) {
    std::cerr << "cannot open " << path << "\n";
    std::exit(2);
  }
  dts::SourceManager sm;
  size_t slash = path.find_last_of('/');
  sm.set_base_directory(slash == std::string::npos ? "."
                                                   : path.substr(0, slash));
  support::DiagnosticEngine diags;
  auto tree = dts::parse_dts(*source, path, sm, diags);
  if (tree == nullptr || diags.has_errors()) {
    std::cerr << diags.render();
    std::exit(1);
  }
  return tree;
}

/// Maps --disable-rule / --rule-severity onto CrossRefOptions through the
/// one shared parser (checkers/crossref/rules.cpp) — unknown rule ids are
/// rejected with the full catalog listed, and the CLI, the daemon, and
/// run_check agree on the diagnostic byte-for-byte.
std::optional<checkers::crossref::CrossRefOptions> crossref_options_from(
    const ParsedFlags& args) {
  std::string error;
  auto opts = checkers::crossref::parse_rule_options(
      args.value("disable-rule"), args.value("rule-severity"), error);
  std::cerr << error;
  return opts;
}

/// Connects to a daemon: `tcp_spec` ("host:port" / ":port" / "port",
/// numeric IPv4 or "localhost") wins over `socket_path`. Returns -1 with a
/// message on stderr on failure.
int connect_daemon(const std::string& socket_path,
                   const std::string& tcp_spec) {
  if (!tcp_spec.empty()) {
    std::string host = "127.0.0.1";
    std::string port_text = tcp_spec;
    const size_t colon = tcp_spec.rfind(':');
    if (colon != std::string::npos) {
      if (colon > 0) host = tcp_spec.substr(0, colon);
      port_text = tcp_spec.substr(colon + 1);
    }
    if (host == "localhost" || host.empty() || host == "0.0.0.0") {
      host = "127.0.0.1";
    }
    const int port = std::atoi(port_text.c_str());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (port <= 0 || port > 65535 ||
        ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      std::cerr << "bad --tcp endpoint '" << tcp_spec << "'\n";
      return -1;
    }
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      std::cerr << "cannot create socket: " << std::strerror(errno) << "\n";
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      std::cerr << "cannot connect to " << tcp_spec << ": "
                << std::strerror(errno) << "\n";
      ::close(fd);
      return -1;
    }
    return fd;
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "cannot create socket: " << std::strerror(errno) << "\n";
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "socket path too long: " << socket_path << "\n";
    ::close(fd);
    return -1;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::cerr << "cannot connect to " << socket_path << ": "
              << std::strerror(errno) << "\n";
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Ships a check request to a running llhscd (Unix socket or TCP) and
/// replays the response's stdout/stderr/exit code locally. The daemon runs
/// the same check implementation the local path does, so the bytes match.
int serve_check(const std::string& socket_path, const std::string& tcp_spec,
                const std::string& tenant, api::CheckRequest request) {
  namespace fs = std::filesystem;
  using support::Json;
  // The daemon's cwd is not ours: any path it must touch goes absolute.
  std::error_code ec;
  if (!request.base_directory.empty()) {
    fs::path abs = fs::absolute(request.base_directory, ec);
    if (!ec) request.base_directory = abs.string();
  }
  if (!request.cache_dir.empty()) {
    fs::path abs = fs::absolute(request.cache_dir, ec);
    if (!ec) request.cache_dir = abs.string();
  }

  Json params = Json::object();
  params.set("path", Json::string(request.path));
  params.set("source", Json::string(request.source));
  params.set("base_directory", Json::string(request.base_directory));
  params.set("format", Json::string(request.format));
  params.set("lint", Json::boolean(request.lint));
  params.set("crossref", Json::boolean(request.crossref));
  params.set("graph", Json::boolean(request.graph));
  params.set("syntax", Json::boolean(request.syntax));
  params.set("semantics", Json::boolean(request.semantics));
  params.set("quiet", Json::boolean(request.quiet));
  params.set("stats", Json::boolean(request.stats));
  params.set("backend", Json::string(request.backend));
  params.set("schemas_text", Json::string(request.schemas_text));
  params.set("schemas_path", Json::string(request.schemas_path));
  params.set("disable_rule", Json::string(request.disable_rule));
  params.set("rule_severity", Json::string(request.rule_severity));
  params.set("solver_timeout_ms",
             Json::unsigned_integer(request.solver_timeout_ms));
  params.set("plan", Json::boolean(request.plan));
  params.set("cache_dir", Json::string(request.cache_dir));
  params.set("baseline", Json::string(request.baseline_text));
  Json req = Json::object();
  req.set("id", Json::integer(1));
  req.set("method", Json::string("check"));
  req.set("params", std::move(params));
  if (!tenant.empty()) req.set("tenant", Json::string(tenant));

  const std::string where = tcp_spec.empty() ? socket_path : tcp_spec;
  int fd = connect_daemon(socket_path, tcp_spec);
  if (fd < 0) return 2;
  std::string line = req.dump();
  line += '\n';
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      std::cerr << "cannot send request to " << where << "\n";
      ::close(fd);
      return 2;
    }
    off += static_cast<size_t>(n);
  }
  std::string reply;
  char chunk[4096];
  while (reply.find('\n') == std::string::npos) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t newline = reply.find('\n');
  if (newline == std::string::npos) {
    std::cerr << "no response from " << where << "\n";
    return 2;
  }
  auto response = Json::parse(reply.substr(0, newline));
  if (!response || !response->is_object()) {
    std::cerr << "malformed response from " << where << "\n";
    return 2;
  }
  if (!response->at("ok").as_bool(false)) {
    const Json& error = response->at("error");
    std::cerr << "daemon error (" << error.at("code").as_string()
              << "): " << error.at("message").as_string() << "\n";
    return api::exit_code_of(
        api::error_code_from_wire(error.at("code").as_string()));
  }
  const Json& result = response->at("result");
  std::cout << result.at("stdout").as_string();
  std::cerr << result.at("stderr").as_string();
  return static_cast<int>(result.at("exit_code").as_int(2));
}

int usage_check() {
  std::cerr << "usage: llhsc check <file.dts> [--schemas f.yaml] "
               "[--backend builtin|z3|portfolio] [--format text|json|sarif] "
               "[--no-lint] [--no-syntax] [--no-semantics] "
               "[--no-crossref] [--no-graph] [--disable-rule id,...] "
               "[--rule-severity id=error|warning,...] "
               "[--baseline file] [--no-plan] [--cache-dir dir] [--stats] "
               "[--socket sock] [--tcp host:port] [--tenant name] "
               "[--profile file]\n"
               "       llhsc check <core.dts> --lifted --deltas <f.deltas> "
               "--model <f.fm> [--backend b] [--exclusive f1,f2,...] "
               "[--max-configs N] [--differential N] [--stats]\n";
  return 2;
}

/// `llhsc check --lifted`: family-based checking of core+deltas+model in one
/// solver conversation (docs/lifting.md). Exit 1 on findings with error
/// severity or a refused/incomplete family, 0 otherwise.
int run_lifted_check(const ParsedFlags& args) {
  if (!args.has("deltas") || !args.has("model")) {
    std::cerr << "--lifted needs --deltas and --model\n";
    return 2;
  }
  const std::string core_path = args.positional[0];
  auto core_text = read_file(core_path);
  auto delta_text = read_file(args.value("deltas"));
  auto model_text = read_file(args.value("model"));
  if (!core_text || !delta_text || !model_text) {
    std::cerr << "cannot open core, deltas, or model file\n";
    return 2;
  }
  support::DiagnosticEngine diags;
  dts::SourceManager sm;
  size_t slash = core_path.find_last_of('/');
  sm.set_base_directory(slash == std::string::npos
                            ? "."
                            : core_path.substr(0, slash));
  auto core = dts::parse_dts(*core_text, core_path, sm, diags);
  auto deltas = delta::parse_deltas(*delta_text, args.value("deltas"), diags);
  auto model =
      feature::parse_model(*model_text, args.value("model"), diags);
  if (core == nullptr || !model || diags.has_errors()) {
    std::cerr << diags.render();
    return 1;
  }
  delta::ProductLine line(std::move(core), std::move(deltas));

  lift::LiftOptions opts;
  opts.backend = backend_from(args);
  opts.max_configs = args.uint_value("max-configs", 8);
  for (const std::string& f : support::split(args.value("exclusive"), ',')) {
    auto t = support::trim(f);
    if (!t.empty()) opts.exclusive_features.emplace_back(t);
  }
  lift::LiftedResult result = lift::check_family(line, *model, opts, diags);
  std::cerr << diags.render();
  checkers::Findings flat = lift::flatten(result);
  std::cout << checkers::render(flat);
  if (args.has("stats")) {
    std::cerr << "family: " << result.components << " components, "
              << result.patterns << " patterns, " << result.slices
              << " slices, " << result.obligations << " obligations, "
              << result.solver_checks << " solver checks\n";
  }
  if (args.has("differential")) {
    lift::DifferentialOptions dopts;
    dopts.max_products = args.uint_value("differential", 4096);
    lift::DifferentialReport report = lift::compare_with_enumeration(
        line, *model, result, opts, dopts);
    for (const checkers::Finding& note : report.notes) {
      std::cerr << "note: " << note.message << "\n";
    }
    std::cerr << "differential: " << report.products << " products, "
              << (report.equal ? "equal" : "MISMATCH") << "\n";
    for (const std::string& m : report.mismatches) {
      std::cerr << "  " << m << "\n";
    }
    if (!report.equal) return 1;
  }
  if (!result.ok) return 1;
  return checkers::error_count(flat) > 0 ? 1 : 0;
}

int cmd_check(int argc, char** argv) {
  static const std::vector<FlagSpec> kFlags = {
      {"schemas"},
      {"backend"},
      {"format"},
      {"no-lint", FlagKind::kBool},
      {"no-crossref", FlagKind::kBool},
      {"no-graph", FlagKind::kBool},
      {"no-syntax", FlagKind::kBool},
      {"no-semantics", FlagKind::kBool},
      {"quiet", FlagKind::kBool},
      {"stats", FlagKind::kBool},
      {"disable-rule"},
      {"rule-severity"},
      {"baseline"},
      {"solver-timeout-ms", FlagKind::kUint},
      {"no-plan", FlagKind::kBool},
      {"cache-dir"},
      {"socket", FlagKind::kString, "serve"},
      {"tcp"},
      {"tenant"},
      {"profile"},
      {"lifted", FlagKind::kBool},
      {"deltas"},
      {"model"},
      {"exclusive"},
      {"max-configs", FlagKind::kUint},
      {"differential", FlagKind::kUint},
  };
  auto parsed = parse_or_report(kFlags, argc, argv);
  if (!parsed) return usage_check();
  const ParsedFlags& args = *parsed;
  if (args.positional.empty()) return usage_check();
  if (args.has("lifted")) return run_lifted_check(args);
  // Fast-fail validation in the CLI's historical order (format, then rule
  // lists, then I/O); run_check re-validates, but by then these are clean.
  const std::string format = args.value("format", "text");
  if (format != "text" && format != "json" && format != "sarif") {
    std::cerr << "unknown --format '" << format
              << "' (want text|json|sarif)\n";
    return 2;
  }
  if (!crossref_options_from(args)) return 2;

  api::CheckRequest request;
  request.path = args.positional[0];
  {
    auto source = read_file(request.path);
    if (!source) {
      std::cerr << "cannot open " << request.path << "\n";
      return 2;
    }
    request.source = std::move(*source);
  }
  size_t slash = request.path.find_last_of('/');
  request.base_directory =
      slash == std::string::npos ? "." : request.path.substr(0, slash);
  request.format = format;
  request.lint = !args.has("no-lint");
  request.crossref = !args.has("no-crossref");
  request.graph = !args.has("no-graph");
  request.syntax = !args.has("no-syntax");
  request.semantics = !args.has("no-semantics");
  request.quiet = args.has("quiet");
  request.stats = args.has("stats");
  request.backend = args.value("backend", "builtin");
  if (request.syntax && args.has("schemas")) {
    auto text = read_file(args.value("schemas"));
    if (!text) {
      std::cerr << "cannot open schemas file " << args.value("schemas")
                << "\n";
      return 2;
    }
    request.schemas_text = std::move(*text);
    request.schemas_path = args.value("schemas");
  }
  request.disable_rule = args.value("disable-rule");
  request.rule_severity = args.value("rule-severity");
  if (args.has("baseline")) {
    auto text = read_file(args.value("baseline"));
    if (!text) {
      std::cerr << "cannot open baseline file " << args.value("baseline")
                << "\n";
      return 2;
    }
    request.baseline_text = std::move(*text);
  }
  request.solver_timeout_ms = args.uint_value("solver-timeout-ms", 0);
  request.plan = !args.has("no-plan");
  request.cache_dir = args.value("cache-dir");

  // With --profile, the run's event stream (stage spans, per-query solver
  // spans, cache counters — or one client.request span when the work
  // happens in a daemon) is exported as Chrome-trace JSON afterwards.
  const std::string profile_path = args.value("profile");
  obs::TraceSink profile_sink;
  int code;
  {
    std::optional<obs::ScopedSink> sink_guard;
    if (!profile_path.empty()) sink_guard.emplace(&profile_sink);
    if (args.has("socket") || args.has("tcp")) {
      obs::Span span("client.request", "client");
      if (span.active()) {
        span.arg("socket", args.has("tcp") ? args.value("tcp")
                                           : args.value("socket"));
      }
      code = serve_check(args.value("socket"), args.value("tcp"),
                         args.value("tenant"), std::move(request));
    } else {
      api::CheckResult outcome = api::run_check(request);
      std::cout << outcome.output;
      std::cerr << outcome.error_text;
      code = outcome.exit_code;
    }
  }
  if (!profile_path.empty() &&
      !obs::write_chrome_trace(profile_path, profile_sink.take())) {
    std::cerr << "cannot write " << profile_path << "\n";
    return 2;
  }
  return code;
}

int cmd_generate(int argc, char** argv) {
  static const std::vector<FlagSpec> kFlags = {
      {"core"},   {"deltas"}, {"features"}, {"out"},
      {"name"},   {"backend"}, {"schemas"},
  };
  auto parsed = parse_or_report(kFlags, argc, argv);
  const bool ok = parsed && parsed->has("core") && parsed->has("deltas") &&
                  parsed->has("features");
  if (!ok) {
    std::cerr << "usage: llhsc generate --core <core.dts> --deltas <f.deltas> "
                 "--features f1,f2,... [--out dir] [--name vm]\n";
    return 2;
  }
  const ParsedFlags& args = *parsed;
  auto core_text = read_file(args.value("core"));
  auto delta_text = read_file(args.value("deltas"));
  if (!core_text || !delta_text) {
    std::cerr << "cannot open core or deltas file\n";
    return 2;
  }
  support::DiagnosticEngine diags;
  dts::SourceManager sm;
  std::string core_path = args.value("core");
  size_t slash = core_path.find_last_of('/');
  sm.set_base_directory(slash == std::string::npos ? "."
                                                   : core_path.substr(0, slash));
  auto core = dts::parse_dts(*core_text, core_path, sm, diags);
  auto deltas = delta::parse_deltas(*delta_text, args.value("deltas"), diags);
  if (core == nullptr || diags.has_errors()) {
    std::cerr << diags.render();
    return 1;
  }
  delta::ProductLine pl(std::move(core), std::move(deltas));

  std::set<std::string> features;
  for (const std::string& f : support::split(args.value("features"), ',')) {
    auto t = support::trim(f);
    if (!t.empty()) features.insert(std::string(t));
  }
  auto tree = pl.derive(features, diags);
  if (tree == nullptr) {
    std::cerr << diags.render();
    return 1;
  }

  checkers::BatteryOptions checks;
  checks.backend = backend_from(args);
  const checkers::Findings findings =
      checkers::run_battery(*tree, schemas_from(args), checks);
  std::cout << checkers::render(findings);
  if (checkers::error_count(findings) > 0) {
    std::cerr << "product rejected by the checkers\n";
    return 1;
  }

  std::string out_dir = args.value("out", ".");
  std::string name = args.value("name", "product");
  std::string dts_path = out_dir + "/" + name + ".dts";
  if (!write_file(dts_path, dts::print_dts(*tree))) {
    std::cerr << "cannot write " << dts_path << "\n";
    return 2;
  }
  auto blob = fdt::emit(*tree, diags);
  if (blob) write_file(out_dir + "/" + name + ".dtb", *blob);
  std::cout << "wrote " << dts_path << " and " << name << ".dtb\n";
  return 0;
}

int cmd_demo(int argc, char** argv) {
  static const std::vector<FlagSpec> kFlags = {
      {"out"},
      {"jobs", FlagKind::kUint},
      {"solver-timeout-ms", FlagKind::kUint},
      {"trace-json"},
      {"verbose", FlagKind::kBool},
      {"no-plan", FlagKind::kBool},
      {"cache-dir"},
      {"backend"},
      {"profile"},
  };
  auto parsed = parse_or_report(kFlags, argc, argv);
  if (!parsed) {
    std::cerr << "usage: llhsc demo [--out dir] [--jobs N] "
                 "[--solver-timeout-ms N] [--trace-json file] [--verbose] "
                 "[--no-plan] [--cache-dir dir] [--profile file]\n";
    return 2;
  }
  const ParsedFlags& args = *parsed;
  std::string out_dir = args.value("out", ".");
  feature::FeatureModel model = feature::running_example_model();
  schema::SchemaSet schemas = schema::builtin_schemas();
  support::DiagnosticEngine diags;
  auto pl = core::running_example_product_line(diags);
  if (pl == nullptr) {
    std::cerr << diags.render();
    return 2;
  }
  core::PipelineOptions opts;
  opts.checks.backend = backend_from(args);
  opts.checks.solver_timeout_ms = args.uint_value("solver-timeout-ms", 0);
  opts.checks.plan = !args.has("no-plan");
  opts.checks.cache_dir = args.value("cache-dir");
  opts.jobs = static_cast<unsigned>(args.uint_value("jobs", 1));
  core::Pipeline pipeline(model, core::exclusive_cpus(model), *pl, schemas,
                          opts);
  core::PipelineResult result = pipeline.run(
      {{"vm1", core::fig1b_features()}, {"vm2", core::fig1c_features()}});
  // Trace and profile go out before the success check: a failed run still
  // leaves its partial timing/finding data behind for inspection.
  if (args.has("trace-json")) {
    if (!write_file(args.value("trace-json"), result.trace.to_json())) {
      std::cerr << "cannot write " << args.value("trace-json") << "\n";
      return 2;
    }
  }
  if (args.has("profile")) {
    if (!obs::write_chrome_trace(args.value("profile"), result.events)) {
      std::cerr << "cannot write " << args.value("profile") << "\n";
      return 2;
    }
  }
  if (args.has("verbose")) std::cerr << result.trace.render_table();
  std::cout << checkers::render(result.findings);
  if (!result.ok) {
    std::cerr << result.diagnostics.render() << "pipeline failed\n";
    return 1;
  }
  for (const core::GeneratedVm& vm : result.vms) {
    write_file(out_dir + "/" + vm.name + ".dts", vm.dts_text);
    write_file(out_dir + "/" + vm.name + ".dtb", vm.dtb);
  }
  write_file(out_dir + "/platform.dts", result.platform_dts_text);
  write_file(out_dir + "/platform.dtb", result.platform_dtb);
  write_file(out_dir + "/platform.c", result.platform_config_c);
  write_file(out_dir + "/config.c", result.vm_config_c);
  std::cout << "wrote vm1/vm2/platform .dts+.dtb, platform.c, config.c to "
            << out_dir << "\n";
  return 0;
}

feature::FeatureModel model_from(const ParsedFlags& args) {
  if (args.has("model")) {
    auto text = read_file(args.value("model"));
    if (!text) {
      std::cerr << "cannot open model file " << args.value("model") << "\n";
      std::exit(2);
    }
    support::DiagnosticEngine diags;
    auto model = feature::parse_model(*text, args.value("model"), diags);
    if (!model) {
      std::cerr << diags.render();
      std::exit(1);
    }
    return std::move(*model);
  }
  return feature::running_example_model();
}

int cmd_products(int argc, char** argv) {
  static const std::vector<FlagSpec> kFlags = {
      {"model"},
      {"count-only", FlagKind::kBool},
      {"backend"},
      {"max-products", FlagKind::kUint},
  };
  auto parsed = parse_or_report(kFlags, argc, argv);
  if (!parsed) return 2;
  const ParsedFlags& args = *parsed;
  feature::FeatureModel model = model_from(args);
  smt::Solver solver(backend_from(args));
  if (args.has("count-only")) {
    std::cout << feature::count_products(model, solver) << "\n";
    return 0;
  }
  // Products stream through the callback — a 2^20 family never materialises
  // more than one Selection. The cap turns "enumerate everything" into a
  // bounded sample with an explicit truncation warning.
  uint64_t n = 0;
  bool capped = false;
  feature::enumerate_products(
      model, solver,
      [&](const feature::Selection& sel) {
        std::cout << "product " << ++n << ":";
        for (uint32_t i = 0; i < model.size(); ++i) {
          const feature::Feature& f = model.feature(feature::FeatureId{i});
          if (sel[i] && !f.abstract_feature && f.children.empty()) {
            std::cout << ' ' << f.name;
          }
        }
        std::cout << "\n";
        return true;
      },
      args.uint_value("max-products", UINT64_MAX), &capped);
  std::cout << n << " valid products\n";
  if (capped) {
    std::cerr << "warning: enumeration-capped: stopped at --max-products="
              << n << " with more valid products remaining\n";
  }
  return 0;
}

int cmd_allocate(int argc, char** argv) {
  static const std::vector<FlagSpec> kFlags = {
      {"model"}, {"exclusive"}, {"vms", FlagKind::kUint}, {"backend"},
  };
  auto parsed = parse_or_report(kFlags, argc, argv);
  if (!parsed) return 2;
  const ParsedFlags& args = *parsed;
  feature::FeatureModel model = model_from(args);
  std::vector<feature::FeatureId> exclusive;
  for (const std::string& name : support::split(args.value("exclusive"), ',')) {
    auto t = support::trim(name);
    if (t.empty()) continue;
    auto id = model.find(t);
    if (!id) {
      std::cerr << "unknown exclusive feature '" << std::string(t) << "'\n";
      return 2;
    }
    exclusive.push_back(*id);
  }
  smt::Backend backend = backend_from(args);
  int limit = static_cast<int>(args.uint_value("vms", 16));
  for (int m = 1; m <= limit; ++m) {
    bool ok = feature::allocation_feasible(model, backend, m, exclusive);
    std::cout << m << " VM" << (m > 1 ? "s" : " ") << ": "
              << (ok ? "feasible" : "infeasible") << "\n";
    if (!ok) break;
  }
  std::cout << "max VMs: "
            << feature::max_feasible_vms(model, backend, exclusive, limit)
            << "\n";
  return 0;
}

int cmd_analyze(int argc, char** argv) {
  static const std::vector<FlagSpec> kFlags = {{"model"}, {"backend"}};
  auto parsed = parse_or_report(kFlags, argc, argv);
  if (!parsed) return 2;
  const ParsedFlags& args = *parsed;
  feature::FeatureModel model = model_from(args);
  smt::Solver solver(backend_from(args));
  std::cout << "features:        " << model.size() << "\n";
  std::cout << "void:            "
            << (feature::is_void(model, solver) ? "yes" : "no") << "\n";
  std::cout << "products:        "
            << feature::count_products(model, solver, 1u << 20) << "\n";
  auto name_list = [&](const std::vector<feature::FeatureId>& ids) {
    std::string out;
    for (feature::FeatureId id : ids) {
      if (!out.empty()) out += ", ";
      out += model.feature(id).name;
    }
    return out.empty() ? std::string("(none)") : out;
  };
  std::cout << "dead features:   " << name_list(feature::dead_features(model, solver))
            << "\n";
  std::cout << "core features:   " << name_list(feature::core_features(model, solver))
            << "\n";
  std::cout << "false optional:  "
            << name_list(feature::false_optional_features(model, solver))
            << "\n";
  return 0;
}

int cmd_configure(int argc, char** argv) {
  static const std::vector<FlagSpec> kFlags = {
      {"model"}, {"decide"}, {"backend"},
  };
  auto parsed = parse_or_report(kFlags, argc, argv);
  if (!parsed) return 2;
  const ParsedFlags& args = *parsed;
  feature::FeatureModel model = model_from(args);
  feature::Configurator cfg(model, backend_from(args));
  // Scripted decisions: --decide "veth0=on,uart@30000000=off,veth0=retract"
  for (const std::string& d : support::split(args.value("decide"), ',')) {
    auto t = support::trim(d);
    if (t.empty()) continue;
    size_t eq = t.find('=');
    if (eq == std::string_view::npos) {
      std::cerr << "bad decision '" << std::string(t)
                << "' (want name=on|off|retract)\n";
      return 2;
    }
    std::string name(support::trim(t.substr(0, eq)));
    std::string verb(support::trim(t.substr(eq + 1)));
    auto id = model.find(name);
    if (!id) {
      std::cerr << "unknown feature '" << name << "'\n";
      return 2;
    }
    bool ok = verb == "on"        ? cfg.select(*id)
              : verb == "off"     ? cfg.deselect(*id)
              : verb == "retract" ? cfg.retract(*id)
                                  : false;
    std::cout << name << "=" << verb << " -> "
              << (ok ? "accepted" : "REJECTED") << "\n";
  }
  std::cout << "\nstate:\n";
  for (uint32_t i = 0; i < model.size(); ++i) {
    feature::FeatureId f{i};
    std::cout << "  " << std::string(feature::to_string(cfg.state(f)))
              << "\t" << model.feature(f).name << "\n";
  }
  std::cout << "complete: " << (cfg.complete() ? "yes" : "no")
            << ", remaining products: " << cfg.remaining_products() << "\n";
  return 0;
}

int cmd_overlay(int argc, char** argv) {
  static const std::vector<FlagSpec> kFlags = {
      {"base"}, {"overlay"}, {"out"},
  };
  auto parsed = parse_or_report(kFlags, argc, argv);
  const bool ok = parsed && parsed->has("base") && parsed->has("overlay");
  if (!ok) {
    std::cerr << "usage: llhsc overlay --base <base.dts> --overlay <o.dtso> "
                 "[--out <file.dts>]\n";
    return 2;
  }
  const ParsedFlags& args = *parsed;
  auto base = parse_file_or_die(args.value("base"));
  auto overlay_text = read_file(args.value("overlay"));
  if (!overlay_text) {
    std::cerr << "cannot open " << args.value("overlay") << "\n";
    return 2;
  }
  support::DiagnosticEngine diags;
  dts::SourceManager sm;
  auto overlay =
      dts::parse_overlay(*overlay_text, args.value("overlay"), sm, diags);
  if (!overlay) {
    std::cerr << diags.render();
    return 1;
  }
  if (!dts::apply_overlay(*base, *overlay, diags)) {
    std::cerr << diags.render();
    return 1;
  }
  std::string out = dts::print_dts(*base);
  if (args.has("out")) {
    if (!write_file(args.value("out"), out)) {
      std::cerr << "cannot write " << args.value("out") << "\n";
      return 2;
    }
    std::cout << "wrote " << args.value("out") << "\n";
  } else {
    std::cout << out;
  }
  return 0;
}

int usage() {
  std::cerr << "llhsc — DeviceTree syntax and semantic checker\n"
               "commands:\n"
               "  check <file.dts>   run lint + cross-reference + device-graph\n"
               "                     + syntactic + semantic checks (--format\n"
               "                     text|json|sarif, --no-crossref, --no-graph,\n"
               "                     --disable-rule, --rule-severity,\n"
               "                     --baseline <file>, --socket <sock>,\n"
               "                     --profile <file>; see docs/rules.md);\n"
               "                     --lifted checks a whole product line\n"
               "                     (--deltas, --model; docs/lifting.md)\n"
               "  generate           derive a product from a DTS product line\n"
               "  demo               run the paper's running example (--jobs N,\n"
               "                     --solver-timeout-ms N, --trace-json <file>,\n"
               "                     --verbose, --no-plan, --cache-dir <dir>,\n"
               "                     --profile <file>)\n"
               "  products           enumerate products (--model <f.fm>,\n"
               "                     --max-products N)\n"
               "  analyze            feature-model analyses (--model <f.fm>)\n"
               "  allocate           VM allocation feasibility (--model, \n"
               "                     --exclusive f1,f2, --vms N)\n"
               "  overlay            apply a /plugin/ overlay (--base, \n"
               "                     --overlay, [--out])\n"
               "  configure          scripted decision propagation (--model,\n"
               "                     --decide f=on,g=off,...)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  if (cmd == "check") return cmd_check(argc, argv);
  if (cmd == "generate") return cmd_generate(argc, argv);
  if (cmd == "demo") return cmd_demo(argc, argv);
  if (cmd == "products") return cmd_products(argc, argv);
  if (cmd == "analyze") return cmd_analyze(argc, argv);
  if (cmd == "allocate") return cmd_allocate(argc, argv);
  if (cmd == "overlay") return cmd_overlay(argc, argv);
  if (cmd == "configure") return cmd_configure(argc, argv);
  return usage();
}
