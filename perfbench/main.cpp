// The llhsc benchmark binary. perfbench/run.py builds it, generates the
// inputs and runs
//
//   perfbench --workload <board-cold|product-line|daemon-mixed>
//             --seed N --seconds S --trace 0|1
//             --inputs DIR --workdir DIR --llhscd PATH
//
// The last stdout line is the result object. --trace 0 reports the
// end-to-end metrics of the named workload; --trace 1 runs a traced slice
// of every workload (so every layer is measured), compares the named one
// against its untraced route for obs.trace_overhead, and writes the
// benchmark's spans to DIR/spans-<workload>.json at the end.
#include <iostream>
#include <string>

#include "api/llhsc.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

bool parse_args(int argc, char** argv, Options& opts, bool& setup_probe) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--setup-probe") {
      setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opts.seconds = std::stod(v);
    } else if (a == "--trace") {
      opts.trace = v == "1";
    } else if (a == "--inputs") {
      opts.inputs = v;
    } else if (a == "--workdir") {
      opts.workdir = v;
    } else if (a == "--llhscd") {
      opts.llhscd = v;
    } else {
      return false;
    }
  }
  return !opts.workload.empty() && !opts.inputs.empty();
}

/// Set-up of an in-process workload: start, then answer a first trivial
/// request through the workload's entry point, which pays the library's
/// lazy initialisation. Loading the benchmark's own inputs is not set-up.
int setup_probe(const Options& opts) {
  const char* source =
      "/dts-v1/;\n/ { #address-cells = <1>; #size-cells = <1>; };\n";
  int exit_code = 0;
  if (opts.workload == "product-line") {
    llhsc::api::CheckStore store;
    llhsc::api::SessionRequest req;
    req.core_source = source;
    req.core_name = "probe.dts";
    req.products.push_back({"probe", {}});
    exit_code = llhsc::api::run_session(req, store).exit_code;
  } else {
    llhsc::api::CheckRequest req;
    req.path = "probe.dts";
    req.source = source;
    exit_code = llhsc::api::run_check(req).exit_code;
  }
  if (exit_code != 0) return 1;
  std::cout << "ready" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool probe = false;
  if (!parse_args(argc, argv, opts, probe)) {
    std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --inputs DIR --workdir DIR --llhscd PATH\n";
    return 2;
  }
  opts.self = argv[0];
  try {
    if (probe) return setup_probe(opts);
    const perfbench::Json manifest = perfbench::load_manifest(opts);
    perfbench::Result result;
    std::cout << perfbench::Json::object()
                     .set("host", perfbench::host_context())
                     .dump()
                 << "\n";
    if (!opts.trace) {
      if (opts.workload == "board-cold") {
        perfbench::run_board_cold(opts, manifest, result);
      } else if (opts.workload == "product-line") {
        perfbench::run_product_line(opts, manifest, result);
      } else if (opts.workload == "daemon-mixed") {
        perfbench::run_daemon_mixed(opts, manifest, result);
      } else {
        std::cerr << "unknown workload " << opts.workload << "\n";
        return 2;
      }
    } else {
      perfbench::SpanLog spans;
      perfbench::TraceSlice slice;
      slice.seconds = opts.seconds / 3;
      const auto for_workload = [&](const char* name) {
        perfbench::TraceSlice s = slice;
        s.measure_overhead = opts.workload == name;
        return s;
      };
      if (opts.workload != "board-cold" && opts.workload != "product-line" &&
          opts.workload != "daemon-mixed") {
        std::cerr << "unknown workload " << opts.workload << "\n";
        return 2;
      }
      perfbench::trace_board_cold(opts, manifest, for_workload("board-cold"),
                                  spans, result);
      perfbench::trace_product_line(opts, manifest,
                                    for_workload("product-line"), spans,
                                    result);
      perfbench::trace_daemon_mixed(opts, manifest,
                                    for_workload("daemon-mixed"), spans,
                                    result);
      spans.write_chrome_trace(opts.workdir + "/spans-" + opts.workload +
                               ".json");
    }
    result.correct = result.correct && result.failed == 0;
    result.print();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
