// SMT facade: one term language (logic::FormulaArena + logic::BvArena), two
// interchangeable backends.
//
//   - kBuiltin: Tseitin + bit-blasting onto the in-tree CDCL solver. Makes
//     llhsc self-contained, mirrors what Z3 does internally for QF_BV
//     ("the technique of bit-blasting is used by the Z3 theorem prover",
//     paper §IV-C).
//   - kZ3: the Z3 native C++ API — the backend the paper actually uses.
//   - kPortfolio: races kBuiltin and kZ3 on the same query; the first
//     definitive verdict (sat/unsat) wins and the loser is cancelled through
//     support::Deadline's cancel token. Findings are byte-identical to
//     either backend alone because witness terms are pinned at query
//     construction (checkers/semantic.cpp).
//
// The checkers never talk to a backend directly; differential tests assert
// both backends agree on every checker verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "logic/bitvector.hpp"
#include "logic/formula.hpp"
#include "support/deadline.hpp"

namespace llhsc::smt {

enum class CheckResult : uint8_t { kSat, kUnsat, kUnknown };

enum class Backend : uint8_t { kBuiltin, kZ3, kPortfolio };

[[nodiscard]] std::string_view to_string(Backend b);
/// The inverse of to_string(Backend), as the --backend flag and request
/// fields spell it. An unknown name selects kBuiltin and appends
/// "warning: unknown backend '<name>', using builtin\n" to `warning`.
[[nodiscard]] Backend backend_from_name(std::string_view name,
                                        std::string& warning);
[[nodiscard]] std::string_view to_string(CheckResult r);

struct SolverStats {
  uint64_t checks = 0;
  uint64_t sat_results = 0;
  uint64_t unsat_results = 0;
  /// Checks that hit a deadline (or that the backend gave up on).
  uint64_t unknown_results = 0;
};

/// Backend implementation interface. Consumes formulas/terms built in the
/// arenas owned by the fronting Solver.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;
  virtual void add(logic::Formula f) = 0;
  virtual void push() = 0;
  virtual void pop() = 0;
  /// Bounds subsequent check() calls; an expired deadline yields kUnknown
  /// (builtin: polled in the CDCL search loop; z3: mapped to the solver's
  /// timeout parameter). A default Deadline removes the limit.
  virtual void set_deadline(const support::Deadline& deadline) = 0;
  /// Pre-encodes `assumptions` (and everything they reach) into backend-local
  /// form without solving. The builtin backend's Tseitin/bit-blasting step
  /// creates fresh variables in the *shared* term arenas, so portfolio racing
  /// calls prepare() on both backends sequentially before the race — the
  /// racing check() calls then hit memoised encodings and never touch shared
  /// state. Default no-op.
  virtual void prepare(std::span<const logic::Formula> assumptions) {
    (void)assumptions;
  }
  virtual CheckResult check(std::span<const logic::Formula> assumptions) = 0;
  [[nodiscard]] virtual bool model_bool(logic::BoolVar v) = 0;
  [[nodiscard]] virtual uint64_t model_bv(logic::BvTerm t) = 0;
  /// After a kUnsat check with assumptions: the subset of those assumptions
  /// that conflicts with the asserted formulas (not necessarily minimal).
  [[nodiscard]] virtual std::vector<logic::Formula> unsat_core() = 0;
  /// Housekeeping hook called after a guard literal is retired (asserted
  /// false at the top level): backends drop state the retired guard poisons
  /// while *retaining* everything independent of it. The builtin backend
  /// maps this to sat::Solver::simplify(), which sweeps learned clauses
  /// satisfied at level 0 out of the watch lists; Z3 manages its own learnt
  /// store, so the default is a no-op.
  virtual void simplify() {}
  /// Asynchronously aborts an in-flight check() from another thread; the
  /// interrupted check returns kUnknown. Default no-op (the builtin backend
  /// is cancelled through the Deadline token instead).
  virtual void interrupt() {}
};

/// The solver the rest of llhsc sees. Owns the term arenas and a backend.
/// Incremental: supports push/pop scopes and solving under assumptions,
/// matching the paper's "constraints can be added incrementally to the same
/// solver instance" extensibility claim (§VI).
class Solver {
 public:
  explicit Solver(Backend backend = Backend::kBuiltin);
  ~Solver();
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  [[nodiscard]] logic::FormulaArena& formulas() { return formulas_; }
  [[nodiscard]] logic::BvArena& bitvectors() { return bitvectors_; }
  [[nodiscard]] Backend backend() const { return backend_kind_; }

  /// Shorthand for declaring named atoms.
  logic::Formula bool_var(const std::string& name);
  logic::BvTerm bv_var(const std::string& name, uint32_t width);

  void add(logic::Formula f);
  void push();
  void pop();
  /// Retires an assumption guard: asserts !guard and lets the backend sweep
  /// guard-dependent learned clauses while keeping the guard-independent
  /// ones for later check_assuming() calls (learned-clause retention).
  void retire(logic::Formula guard);
  /// Wall-clock budget for each subsequent check; expired checks return
  /// kUnknown instead of blocking. Reset with a default Deadline.
  void set_deadline(const support::Deadline& deadline);
  CheckResult check();
  CheckResult check_assuming(std::span<const logic::Formula> assumptions);

  /// Model access after kSat.
  [[nodiscard]] bool model_bool(logic::BoolVar v);
  [[nodiscard]] bool model_bool(logic::Formula var_formula);
  [[nodiscard]] uint64_t model_bv(logic::BvTerm t);

  /// After a kUnsat check_assuming: the conflicting subset of the
  /// assumptions (an unsat core; not necessarily minimal).
  [[nodiscard]] std::vector<logic::Formula> unsat_core();

  /// Deletion-minimises a conflicting assumption set: repeatedly drops one
  /// element and re-checks, keeping the set unsat. Returns a *minimal* core
  /// (every element necessary), at the cost of O(|core|) solver calls.
  /// Returns empty when `assumptions` is actually satisfiable.
  [[nodiscard]] std::vector<logic::Formula> minimal_core(
      std::span<const logic::Formula> assumptions);

  [[nodiscard]] const SolverStats& stats() const { return stats_; }

 private:
  Backend backend_kind_;
  logic::FormulaArena formulas_;
  logic::BvArena bitvectors_;
  std::unique_ptr<SolverBackend> backend_;
  SolverStats stats_;
  /// Mirror of the backend's budget, so per-query spans can report it.
  support::Deadline deadline_;
};

/// Factory used by tests/benches to sweep both backends.
[[nodiscard]] std::vector<Backend> all_backends();

}  // namespace llhsc::smt
