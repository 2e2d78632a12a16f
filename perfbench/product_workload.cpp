// product-line: one thread on one api::CheckStore. A cold run_session over
// a generated product line (lifted family analysis, allocation with
// exclusive features, a few small products and the platform), then a
// seeded sequence of one-delta edits, each re-checked through the same
// store. Lift, delta, feature and the artifact store do the work.
#include <algorithm>
#include <iostream>
#include <map>
#include <stdexcept>

#include "api/llhsc.hpp"
#include "checkers/resource_allocation.hpp"
#include "delta/delta.hpp"
#include "dts/parser.hpp"
#include "feature/text_format.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace api = llhsc::api;
namespace obs = llhsc::obs;

/// One edit of the generated period; its text holds an @REV@ placeholder.
struct Edit {
  size_t index = 0;
  std::string text;
  uint64_t rederived = 0;
  /// Units whose known answer the edit changes, with their new answer.
  std::map<std::string, FindingKeys> changed;
};

struct ProductLineInput {
  std::string core;
  std::string model;
  std::vector<std::string> modules;
  std::vector<api::SessionProduct> products;
  std::vector<std::string> exclusive;
  std::map<std::string, FindingKeys> expected;
  std::map<std::string, uint64_t> unit_nodes;
  std::vector<Edit> edits;  // one period, repeated for as long as a run lasts
};

std::map<std::string, FindingKeys> expected_units(const Json& j) {
  std::map<std::string, FindingKeys> out;
  for (const auto& [name, findings] : j.fields()) {
    out[name] = expected_keys(findings);
  }
  return out;
}

ProductLineInput load_input(const Options& opts, const Json& manifest) {
  const Json& spl = manifest.at("spl");
  ProductLineInput in;
  in.core = read_file(opts.inputs + "/" + spl.at("core").as_string());
  in.model = read_file(opts.inputs + "/" + spl.at("model").as_string());
  for (const Json& m : spl.at("modules").items()) {
    in.modules.push_back(m.as_string());
  }
  for (const Json& p : spl.at("products").items()) {
    api::SessionProduct product;
    product.name = p.at("name").as_string();
    for (const Json& f : p.at("features").items()) {
      product.features.insert(f.as_string());
    }
    in.products.push_back(std::move(product));
  }
  for (const Json& f : spl.at("exclusive").items()) {
    in.exclusive.push_back(f.as_string());
  }
  in.expected = expected_units(spl.at("expected"));
  for (const auto& [name, n] : spl.at("unit_nodes").fields()) {
    in.unit_nodes[name] = n.as_uint();
  }
  for (const Json& e : spl.at("edits").items()) {
    Edit edit;
    edit.index = e.at("index").as_uint();
    edit.text = e.at("text").as_string();
    edit.rederived = e.at("rederived").as_uint();
    edit.changed = expected_units(e.at("changed"));
    in.edits.push_back(std::move(edit));
  }
  if (in.edits.empty()) throw std::runtime_error("product-line: no edits");
  return in;
}

std::string join(const std::vector<std::string>& modules) {
  std::string out;
  for (const std::string& m : modules) {
    if (!out.empty()) out += "\n";
    out += m;
  }
  return out;
}

api::SessionRequest session_request(const ProductLineInput& in,
                                    const std::vector<std::string>& modules) {
  api::SessionRequest req;
  req.core_source = in.core;
  req.core_name = "spl.dts";
  req.deltas_source = join(modules);
  req.deltas_name = "spl.deltas";
  req.model_source = in.model;
  req.model_name = "spl.fm";
  req.products = in.products;
  req.check_platform = true;
  req.check_allocation = true;
  req.check_lifted = true;
  req.exclusive = in.exclusive;
  return req;
}

/// True when every unit's findings match the known answer.
bool session_ok(const api::SessionResult& r,
                const std::map<std::string, FindingKeys>& expected) {
  if (r.exit_code == 2) {
    std::cerr << "perfbench: session rejected: " << r.error_text;
    return false;
  }
  std::map<std::string, FindingKeys> got;
  for (const api::SessionUnitResult& u : r.units) {
    FindingKeys keys = text_report_keys(u.report);
    if (u.name == "*lifted*") {
      // The family analysis reports a pair once per activation pattern of
      // its component that exhibits it (disjoint configuration classes);
      // the known answer is the set of pairs some configuration exhibits.
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
    got[u.name] = std::move(keys);
  }
  for (const auto& [name, keys] : expected) {
    if (got.count(name) == 0 && !keys.empty()) return false;
  }
  for (const auto& [name, keys] : got) {
    const auto it = expected.find(name);
    const FindingKeys none;
    if (keys != (it == expected.end() ? none : it->second)) {
      static bool reported = false;
      if (!reported) {
        reported = true;
        std::cerr << "perfbench: session unit " << name
                  << ": findings differ from the known answer\n";
        for (const auto& u : r.units) {
          if (u.name == name) std::cerr << u.report;
        }
      }
      return false;
    }
  }
  return true;
}

constexpr size_t kStoreCapacity = 128;

uint64_t session_nodes(const ProductLineInput& in) {
  uint64_t n = 0;
  for (const auto& [name, count] : in.unit_nodes) n += count;
  return n;
}

}  // namespace

void run_product_line(const Options& opts, const Json& manifest, Result& out) {
  const ProductLineInput in = load_input(opts, manifest);
  out.metric("setup_s", probe_setup_s(opts, 25), "s");

  // Self-check (untimed): the family analysis discharges obligations.
  {
    api::CheckStore store;
    obs::TraceSink sink;
    {
      obs::ScopedSink guard(&sink);
      (void)api::run_session(session_request(in, in.modules), store);
    }
    int64_t obligations = 0;
    for (const obs::Event& e : sink.snapshot()) {
      if (e.kind == obs::Event::Kind::kCounter &&
          e.name == "lift.obligations") {
        obligations += e.delta;
      }
    }
    out.self_check(obligations > 0,
                   "product-line: the lifted analysis discharged no "
                   "obligations");
  }

  // The cold family check runs on a fresh store before every edit, so its
  // samples span the run.
  Samples cold;
  const api::SessionRequest initial = session_request(in, in.modules);
  auto cold_check = [&]() {
    api::CheckStore fresh(kStoreCapacity);
    const Clock::time_point s = Clock::now();
    const api::SessionResult r = api::run_session(initial, fresh);
    cold.add(ms_since(s));
    ++out.attempted;
    if (!session_ok(r, in.expected)) ++out.failed;
  };

  // One-delta edits on one store, whose capacity is small enough that its
  // first-in first-out eviction reaches a steady state early in the run:
  // peak RSS then reads the steady state, not how many edits a run fitted.
  api::CheckStore store(kStoreCapacity);
  ++out.attempted;
  if (!session_ok(api::run_session(initial, store), in.expected)) ++out.failed;
  std::vector<std::string> modules = in.modules;
  std::map<std::string, FindingKeys> expected = in.expected;
  Samples latency;
  bool derives_ok = true;
  double cold_s = 0;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; seconds_since(t0) < opts.seconds; ++i) {
    const Edit& e = in.edits[i % in.edits.size()];
    {
      const Clock::time_point s = Clock::now();
      cold_check();
      cold_s += seconds_since(s);
    }
    modules[e.index] = with_revision(e.text, i + 1);
    for (const auto& [unit, keys] : e.changed) expected[unit] = keys;
    const api::SessionRequest req = session_request(in, modules);
    const Clock::time_point s = Clock::now();
    const api::SessionResult r = api::run_session(req, store);
    latency.add(ms_since(s));
    ++out.attempted;
    if (!session_ok(r, expected)) ++out.failed;
    if (r.cost.derives != e.rederived) derives_ok = false;
  }
  const double elapsed = seconds_since(t0) - cold_s;
  out.self_check(derives_ok,
                 "product-line: an edit re-derived other than the products "
                 "that activate the edited delta");

  out.metric("latency_ms.p50", latency.median(), "ms");
  out.metric("latency_ms.tail", latency.tail(), "ms");
  out.metric("throughput_per_s", static_cast<double>(latency.size()) / elapsed,
             "1/s");
  out.metric("nodes_per_s",
             static_cast<double>(latency.size() * session_nodes(in)) / elapsed,
             "1/s");
  out.metric("cold_ms", cold.median(), "ms");
  out.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  Json d = Json::object();
  d.set("samples", Json::unsigned_integer(latency.size()));
  d.set("tail_percentile", Json::number(latency.tail_percentile()));
  d.set("cold_sessions", Json::unsigned_integer(cold.size()));
  out.detail.set("product-line", std::move(d));
}

void trace_product_line(const Options& opts, const Json& manifest,
                        const TraceSlice& slice, SpanLog& spans, Result& out) {
  const ProductLineInput in = load_input(opts, manifest);

  // Allocation: the checker's entry point over the session's products.
  Samples allocation_ms;
  {
    llhsc::support::DiagnosticEngine diags;
    auto model = llhsc::feature::parse_model(in.model, "spl.fm", diags);
    if (!model) throw std::runtime_error("product-line: model parse failed");
    std::vector<llhsc::feature::FeatureId> exclusive;
    for (const std::string& name : in.exclusive) {
      exclusive.push_back(*model->find(name));
    }
    std::vector<std::set<std::string>> features;
    for (const api::SessionProduct& p : in.products) {
      features.push_back(p.features);
    }
    for (int i = 0; i < 5; ++i) {
      llhsc::checkers::ResourceAllocationChecker checker(*model, exclusive);
      const int s = spans.open("checkers.allocation");
      const auto findings = checker.check(features);
      spans.close(s);
      allocation_ms.add(static_cast<double>(spans.spans()[s].dur_us) / 1e3);
      (void)findings;
    }
  }

  api::CheckStore plain_store(kStoreCapacity);
  api::CheckStore traced_store(kStoreCapacity);
  (void)api::run_session(session_request(in, in.modules), plain_store);
  (void)api::run_session(session_request(in, in.modules), traced_store);

  std::vector<std::string> modules = in.modules;
  std::map<std::string, FindingKeys> expected = in.expected;
  Samples family_ms, obligations, models, lift_checks, derives, derive_ms;
  uint64_t hits = 0, misses = 0;
  double plain_ms = 0, traced_ms = 0;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; seconds_since(t0) < slice.seconds || i < 10; ++i) {
    const Edit& e = in.edits[i % in.edits.size()];
    modules[e.index] = with_revision(e.text, i + 1);
    for (const auto& [unit, keys] : e.changed) expected[unit] = keys;
    const api::SessionRequest req = session_request(in, modules);
    obs::TraceSink sink;
    api::SessionResult r;
    // Untraced and traced in alternating order, so neither side always
    // runs on the warmer caches.
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass + i) % 2 == 0) {
        const Clock::time_point s = Clock::now();
        (void)api::run_session(req, plain_store);
        plain_ms += ms_since(s);
        continue;
      }
      const int span = spans.open("session edit");
      {
        obs::ScopedSink guard(&sink);
        r = api::run_session(req, traced_store);
      }
      spans.close(span);
      traced_ms += static_cast<double>(spans.spans()[span].dur_us) / 1e3;
    }
    ++out.attempted;
    if (!session_ok(r, expected)) ++out.failed;

    double lift_us = 0;
    int64_t obl = 0, allsat = 0, checks = 0;
    for (const obs::Event& ev : sink.take()) {
      if (ev.kind == obs::Event::Kind::kSpan) {
        if (ev.name == "lift.check_family") {
          lift_us += static_cast<double>(ev.dur_us);
        }
        continue;
      }
      if (ev.name == "lift.obligations") obl += ev.delta;
      if (ev.name == "lift.allsat_models") allsat += ev.delta;
      // The battery's counters carry their stage scope; the family
      // analysis records unscoped.
      if (ev.name == "solver.checks" && ev.scope.empty()) checks += ev.delta;
      if (ev.name == "store.hit") hits += static_cast<uint64_t>(ev.delta);
      if (ev.name == "store.miss") misses += static_cast<uint64_t>(ev.delta);
    }
    family_ms.add(lift_us / 1e3);
    obligations.add(static_cast<double>(obl));
    models.add(static_cast<double>(allsat));
    lift_checks.add(static_cast<double>(checks));
    derives.add(static_cast<double>(r.cost.derives));

    // The delta layer's entry point: re-derive the units that activate the
    // edited delta.
    llhsc::support::DiagnosticEngine diags;
    llhsc::delta::ProductLine line(
        llhsc::dts::parse_dts(in.core, "spl.dts", diags),
        llhsc::delta::parse_deltas(req.deltas_source, "spl.deltas", diags));
    const std::string& edited = line.deltas()[e.index].name;
    std::vector<std::set<std::string>> units;
    std::set<std::string> platform;
    for (const api::SessionProduct& p : in.products) {
      units.push_back(p.features);
      platform.insert(p.features.begin(), p.features.end());
    }
    units.push_back(platform);
    for (const std::set<std::string>& feats : units) {
      bool active = false;
      for (const auto* d : line.active_deltas(feats)) {
        active = active || d->name == edited;
      }
      if (!active) continue;
      const int ds = spans.open("delta.derive");
      auto tree = line.derive(feats, diags);
      spans.close(ds);
      derive_ms.add(static_cast<double>(spans.spans()[ds].dur_us) / 1e3);
    }
  }

  out.metric("checkers.allocation_ms", allocation_ms.median(), "ms");
  out.metric("smt.solver_checks.lift", lift_checks.mean(), "count");
  out.metric("lift.family_ms", family_ms.mean(), "ms");
  out.metric("lift.obligations", obligations.mean(), "count");
  out.metric("lift.allsat_models", models.mean(), "count");
  out.metric("delta.derives", derives.mean(), "count");
  out.metric("delta.derive_ms", derive_ms.mean(), "ms");
  out.metric("server.store.session_hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0,
             "ratio");
  if (slice.measure_overhead) {
    out.metric("obs.trace_overhead",
               plain_ms > 0 ? traced_ms / plain_ms - 1.0 : 0, "ratio");
  }
  Json d = Json::object();
  d.set("traced_edits", Json::unsigned_integer(family_ms.size()));
  out.detail.set("trace.product-line", std::move(d));
}

}  // namespace perfbench
