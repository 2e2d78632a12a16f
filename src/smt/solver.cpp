#include "smt/solver.hpp"

#include "obs/obs.hpp"

namespace llhsc::smt {

// Backend factories (defined in their own translation units).
std::unique_ptr<SolverBackend> make_builtin_backend(
    logic::FormulaArena& formulas, logic::BvArena& bitvectors);
std::unique_ptr<SolverBackend> make_z3_backend(logic::FormulaArena& formulas,
                                               logic::BvArena& bitvectors);
std::unique_ptr<SolverBackend> make_portfolio_backend(
    logic::FormulaArena& formulas, logic::BvArena& bitvectors);

std::string_view to_string(Backend b) {
  switch (b) {
    case Backend::kBuiltin: return "builtin";
    case Backend::kZ3: return "z3";
    case Backend::kPortfolio: return "portfolio";
  }
  return "unknown";
}

Backend backend_from_name(std::string_view name, std::string& warning) {
  for (Backend b : all_backends()) {
    if (name == to_string(b)) return b;
  }
  warning += "warning: unknown backend '" + std::string(name) +
             "', using builtin\n";
  return Backend::kBuiltin;
}

std::string_view to_string(CheckResult r) {
  switch (r) {
    case CheckResult::kSat: return "sat";
    case CheckResult::kUnsat: return "unsat";
    case CheckResult::kUnknown: return "unknown";
  }
  return "unknown";
}

Solver::Solver(Backend backend)
    : backend_kind_(backend), bitvectors_(formulas_) {
  switch (backend) {
    case Backend::kBuiltin:
      backend_ = make_builtin_backend(formulas_, bitvectors_);
      break;
    case Backend::kZ3:
      backend_ = make_z3_backend(formulas_, bitvectors_);
      break;
    case Backend::kPortfolio:
      backend_ = make_portfolio_backend(formulas_, bitvectors_);
      break;
  }
}

Solver::~Solver() = default;

logic::Formula Solver::bool_var(const std::string& name) {
  return formulas_.var(formulas_.new_bool_var(name));
}

logic::BvTerm Solver::bv_var(const std::string& name, uint32_t width) {
  return bitvectors_.bv_var(name, width);
}

void Solver::add(logic::Formula f) { backend_->add(f); }
void Solver::push() { backend_->push(); }
void Solver::pop() { backend_->pop(); }

void Solver::retire(logic::Formula guard) {
  backend_->add(formulas_.mk_not(guard));
  backend_->simplify();
}

void Solver::set_deadline(const support::Deadline& deadline) {
  deadline_ = deadline;
  backend_->set_deadline(deadline);
}

CheckResult Solver::check() { return check_assuming({}); }

CheckResult Solver::check_assuming(std::span<const logic::Formula> assumptions) {
  obs::Span span("solver.check", "solver");
  ++stats_.checks;
  CheckResult r = backend_->check(assumptions);
  if (r == CheckResult::kSat) ++stats_.sat_results;
  if (r == CheckResult::kUnsat) ++stats_.unsat_results;
  if (r == CheckResult::kUnknown) ++stats_.unknown_results;
  obs::count("solver.checks", "solver", 1);
  if (span.active()) {
    span.arg("backend", std::string(to_string(backend_kind_)));
    span.arg("verdict", std::string(to_string(r)));
    span.arg("assumptions", std::to_string(assumptions.size()));
    span.arg("deadline_ms", deadline_.unlimited()
                                ? "unlimited"
                                : std::to_string(deadline_.remaining_ms()));
  }
  return r;
}

bool Solver::model_bool(logic::BoolVar v) { return backend_->model_bool(v); }

bool Solver::model_bool(logic::Formula var_formula) {
  return backend_->model_bool(formulas_.var_of(var_formula));
}

uint64_t Solver::model_bv(logic::BvTerm t) { return backend_->model_bv(t); }

std::vector<logic::Formula> Solver::unsat_core() {
  return backend_->unsat_core();
}

std::vector<logic::Formula> Solver::minimal_core(
    std::span<const logic::Formula> assumptions) {
  std::vector<logic::Formula> work(assumptions.begin(), assumptions.end());
  if (check_assuming(work) != CheckResult::kUnsat) return {};
  // Start from the backend's core (already a subset), then delete-test.
  std::vector<logic::Formula> core = unsat_core();
  if (core.empty()) core = work;
  for (size_t i = 0; i < core.size();) {
    std::vector<logic::Formula> candidate;
    candidate.reserve(core.size() - 1);
    for (size_t j = 0; j < core.size(); ++j) {
      if (j != i) candidate.push_back(core[j]);
    }
    if (check_assuming(candidate) == CheckResult::kUnsat) {
      core = std::move(candidate);  // element i was redundant
    } else {
      ++i;  // element i is necessary
    }
  }
  return core;
}

std::vector<Backend> all_backends() {
  return {Backend::kBuiltin, Backend::kZ3, Backend::kPortfolio};
}

}  // namespace llhsc::smt
