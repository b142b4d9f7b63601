// I/O anti-pattern linter over the mini-C AST — static diagnostics for
// the access patterns the simulated stack punishes, each carrying
// machine-readable tuning hints (config-space parameter names) that
// Smart Configuration Generation consumes to bias its impact ranking.
//
// Detected patterns:
//   small-writes-in-loop      writes far below the stripe/buffer scale
//                             issued inside a loop (per-op overhead and
//                             RMW dominate);
//   open-close-in-loop        file open/create/close churn inside a loop
//                             (metadata-server round-trips per iteration);
//   create-overwrite-in-loop  h5fcreate of the *same constant path* every
//                             iteration — data loss plus metadata storm
//                             (error severity);
//   stripe-unaligned-access   chunk or strided-block byte sizes that are
//                             not a multiple of the smallest stripe unit
//                             (every access straddles an OST boundary);
//   independent-io-in-loop    per-block strided transfers in a loop where
//                             one collective transfer would coalesce;
//   dead-write                an assignment whose value no later
//                             statement can read (def-use chains);
//   contiguous-large-access   informational: large contiguous slab
//                             transfers — prioritize stripe-level
//                             parallelism parameters;
//   unbounded-loop-io         a transfer site whose statically predicted
//                             call count has no upper bound (loop bound
//                             not structurally resolvable) — total I/O
//                             volume is unpredictable;
//   settings-dependent-io     informational: a tuned_* value reaches this
//                             op's arguments or control flow, so the op
//                             stream changes across configurations and
//                             the record/replay fast path is disabled.
//
// Byte sizes come from the one abstract interpretation `lint` runs
// (analysis/cost_model.hpp): a site's per-call payload interval, and the
// element counts and element sizes recorded at h5set_chunking and
// h5dcreate. A payload pinned to one size is judged exactly; otherwise a
// definite upper bound below the small-write threshold, or a definite
// lower bound above the large-access threshold, still fires the
// respective diagnostic. A program the abstract interpreter cannot
// analyze (recursion, exhausted budgets) gets no size-based findings;
// its structural ones remain. Loop context is interprocedural: a
// function with any call site inside a loop is analyzed as
// loop-resident.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cost_model.hpp"
#include "minic/ast.hpp"

namespace tunio::analysis {

enum class LintKind {
  kSmallWritesInLoop,
  kOpenCloseInLoop,
  kCreateOverwriteInLoop,
  kStripeUnalignedAccess,
  kIndependentIoInLoop,
  kDeadWrite,
  kContiguousLargeAccess,
  kUnboundedLoopIo,
  kSettingsDependentIo,
};

enum class Severity { kInfo, kWarning, kError };

std::string kind_name(LintKind kind);
std::string severity_name(Severity severity);

struct Diagnostic {
  LintKind kind{};
  Severity severity = Severity::kWarning;
  int line = 0;
  int column = 0;
  std::string function;  ///< enclosing mini-C function
  std::string message;
  /// Machine-readable hints: config-space parameter names this finding
  /// suggests prioritizing (e.g. "striping_factor", "cb_nodes").
  std::vector<std::string> hint_params;
};

/// `<function>:<line>:<col>: <severity>: <kind>: <message> [hints: ...]`.
std::string format(const Diagnostic& diagnostic);

struct LintReport {
  std::vector<Diagnostic> diagnostics;
  /// Static I/O cost prediction of the linted program (op counts and
  /// byte volumes as intervals, per site and per program). Check
  /// `cost.analyzable` before trusting the intervals.
  ProgramCost cost;

  bool has_errors() const;
  std::size_t count(LintKind kind) const;

  /// Aggregated tuning hints: parameter name -> boost weight in (0, 1],
  /// severity-weighted (error 3, warning 2, info 1) and normalized to a
  /// max of 1, with the cost model's static-impact pre-ranking folded in
  /// at one info-severity unit (it corroborates rather than overrules
  /// the diagnostics). Feed to core::SmartConfigGen::apply_hints.
  std::vector<std::pair<std::string, double>> tuning_hints() const;
};

/// Request sizes are judged against the thresholds in cost_model.hpp
/// (`kSmallWriteBytes`, `kStripeAlignment`, `kLargeAccessBytes`).
LintReport lint(const minic::Program& program);

/// Convenience: parse + lint (lines/columns refer to `source` itself —
/// no normalization round-trip, so locations are the real ones).
LintReport lint_source(const std::string& source);

}  // namespace tunio::analysis
