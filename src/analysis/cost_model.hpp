// Static I/O cost model: per-call-site and per-program op-count and
// byte-volume predictions as intervals, derived from the abstract
// interpreter (absint.hpp).
//
// Semantics mirror the interpreter's application-level accounting
// (replay::app_io_counts is the measured twin):
//
//   h5dwrite_all/h5dread_all(d, per)     1 op per call; bytes =
//                                        per x elem_size(d) x ranks
//   h5d{write,read}_strided(d, blk, n)   1 op per call; bytes =
//                                        n x elem_size(d) x ranks
//   fprintf_log(path, bytes)             1 write op; `bytes` once
//                                        (rank 0 only — not x ranks)
//   h5fcreate/h5fopen                    one file open each
//   h5dcreate                            one dataset create each
//
// Execution counts multiply the enclosing loops' trip-count intervals
// and a [0, 1] factor per statically unresolved branch; a function
// containing an early return has every lower bound floored at zero
// (execution may stop before any later site). Sites also carry the
// settings-taint verdict the replay invariance gate consumes: whether a
// tainted value reaches the call's arguments or its control flow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/absint.hpp"
#include "minic/ast.hpp"

namespace tunio::analysis {

// Request-size thresholds shared by the linter's diagnostics and the
// static-impact pre-ranking.
/// Writes below this estimated byte size count as "small".
inline constexpr std::int64_t kSmallWriteBytes = 64 * 1024;
/// Alignment boundary for stripe checks (the smallest striping_unit).
inline constexpr std::int64_t kStripeAlignment = 64 * 1024;
/// Contiguous transfers at or above this size are "large".
inline constexpr std::int64_t kLargeAccessBytes = 4 * 1024 * 1024;

enum class SiteKind { kWrite, kRead, kMeta, kCompute, kBarrier };

std::string site_kind_name(SiteKind kind);

/// Predicted cost of one op-emitting call site, aggregated over every
/// calling context that reaches it.
struct SiteCost {
  const minic::Expr* site = nullptr;
  int stmt_id = 0;
  int line = 0;
  int col = 0;
  std::string function;  ///< enclosing mini-C function
  std::string callee;    ///< builtin name
  SiteKind kind = SiteKind::kMeta;
  /// Times this call executes across the whole program.
  Interval calls = Interval::constant(0);
  /// Per-rank bytes moved by one call (transfers and log writes; the
  /// linter's request-size checks use this). Meta sites: [0, 0].
  Interval payload_per_call = Interval::constant(0);
  /// Total bytes across all calls and ranks (log writes: rank 0 only).
  Interval bytes = Interval::constant(0);
  /// The dataset shape the linter's chunk check reads, as the abstract
  /// interpreter recorded it: the element count an h5set_chunking site
  /// declares, and the element size an h5dcreate site gives its dataset
  /// (top when unknown). [0, 0] at every other site; part of no volume.
  Interval chunk_elements = Interval::constant(0);
  Interval elem_size = Interval::constant(0);
  /// A settings-tainted value reaches an argument, or the call executes
  /// under settings-tainted control.
  bool tainted = false;
  bool in_loop = false;
};

/// Whole-program prediction. All intervals are sound over-approximations
/// of what replay::app_io_counts measures on any interpreted run with a
/// rank count inside the `mpi_ranks` passed to `predict_cost`.
struct ProgramCost {
  std::vector<SiteCost> sites;
  Interval write_ops = Interval::constant(0);
  Interval read_ops = Interval::constant(0);
  Interval bytes_written = Interval::constant(0);
  Interval bytes_read = Interval::constant(0);
  Interval file_opens = Interval::constant(0);
  Interval dataset_creates = Interval::constant(0);

  /// False when the abstract interpreter could not finish soundly
  /// (recursion, budget exhaustion, no main, parse-level surprises);
  /// `failure` then says why and the intervals are meaningless.
  bool analyzable = false;
  std::string failure;
  /// Context budget forced all-top fallbacks: still sound, less precise.
  bool approximate = false;
  /// A return statement executes under settings-tainted control — the
  /// program's exit value leaks the settings.
  bool tainted_control_exit = false;
  int solver_transfers = 0;

  bool any_tainted_site() const;
  /// True when every transfer site has bounded call and byte intervals.
  bool bounded() const;
};

/// Runs the abstract interpreter (`mpi_size()` ranges over `mpi_ranks`)
/// and folds its facts into per-site and per-program cost intervals.
/// Never throws: failures are reported through
/// `ProgramCost::analyzable` / `failure`.
ProgramCost predict_cost(const minic::Program& program,
                         Interval mpi_ranks = kAnyMpiRanks);

/// Static impact pre-ranking: config-space parameter weights in (0, 1]
/// derived from the predicted workload shape (large contiguous transfers
/// -> stripe-level parallelism; small repeated writes -> collective
/// buffering; metadata churn -> metadata knobs; read traffic -> caching).
/// Same format as LintReport::tuning_hints, normalized to max 1 and
/// deterministically ordered.
std::vector<std::pair<std::string, double>> static_impact(
    const ProgramCost& cost);

}  // namespace tunio::analysis
