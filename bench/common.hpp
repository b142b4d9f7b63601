// Shared infrastructure for the figure-reproduction benches.
//
// Every bench regenerates one table/figure of the paper's evaluation
// (§IV) on the simulated testbed and prints (a) the series/rows the
// paper plots and (b) a paper-vs-measured summary. Absolute numbers
// differ from Cori — the substrate is a simulator — but the shapes
// (who wins, by roughly what factor, where crossovers fall) are the
// reproduction target.
//
// All benches share one "testbed": 4 nodes / 128 processes (the paper's
// component-evaluation rig) with paper-scale workload sizes, so tuning
// budgets land in the hundreds-of-minutes regime the paper reports.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/roti.hpp"
#include "core/tunio.hpp"
#include "tuner/objective.hpp"
#include "tuners/genetic_tuner.hpp"
#include "workloads/workload.hpp"

namespace tunio::bench {

/// Which way a gated value regresses (for the CI perf gate).
enum class Direction { kHigherIsBetter, kLowerIsBetter };

/// Initializes the shared bench harness. Recognizes `--json[=path]`:
/// when present, `finish()` writes a schema-stable `BENCH_<name>.json`
/// (default path: current directory) with every `value()` recorded, the
/// `summary()` rows, wall/simulated time and a metrics-registry
/// snapshot. Call first in every bench main.
void init(int argc, char** argv, const std::string& name);

/// Declares which tuner backend the bench exercises (default "ga").
/// Recorded in the report's `meta` object; benches racing several
/// backends should set the combined label (e.g. "ga+bo+rule+random").
void set_tuner_backend(const std::string& backend);

/// Records one named numeric result. Gated values (`gate = true`) are
/// compared against `bench/baselines/BENCH_<name>.json` by the CI perf
/// gate; only deterministic simulated metrics should be gated — never
/// wall-clock readings, which vary across runners.
void value(const std::string& name, double v, const std::string& unit,
           bool gate = false,
           Direction direction = Direction::kHigherIsBetter);

/// Finishes the bench: writes the JSON report when `--json` was given.
/// Returns `rc` so mains can `return bench::finish(rc);`.
int finish(int rc = 0);

/// Prints the figure banner: id, title, what the paper reports.
void banner(const std::string& figure, const std::string& title,
            const std::string& paper_says);

/// Prints a one-line measured-vs-paper comparison row (also recorded in
/// the JSON report).
void summary(const std::string& metric, const std::string& measured,
             const std::string& paper);

/// Section separator.
void section(const std::string& heading);

/// The 4-node / 128-process component-evaluation testbed.
tuner::TestbedOptions paper_testbed(std::uint64_t seed = 0xC0FFEE);

/// Paper-scale workload parameter sets (sized so one evaluation costs
/// minutes of *simulated* time, as on Cori; CPU cost is unaffected).
wl::HaccParams paper_hacc();
wl::FlashParams paper_flash();
wl::VpicParams paper_vpic();
wl::MacsioParams paper_macsio();
wl::BdcatsParams paper_bdcats();

/// I/O-kernel run options (compute stripped).
wl::RunOptions kernel_options();

/// Standard GA options for the figure experiments.
tuner::GaOptions paper_ga(std::uint64_t seed = 0x5EED);

/// Objective over a paper-scale workload. `as_kernel` strips compute.
std::unique_ptr<tuner::Objective> hacc_objective(bool as_kernel = true,
                                                 std::uint64_t seed = 1);
std::unique_ptr<tuner::Objective> flash_objective(bool as_kernel = true,
                                                  std::uint64_t seed = 2);
std::unique_ptr<tuner::Objective> vpic_objective(bool as_kernel = true,
                                                 std::uint64_t seed = 3);
std::unique_ptr<tuner::Objective> bdcats_objective(bool as_kernel = false,
                                                   std::uint64_t seed = 4);

/// A TunIO instance offline-trained on the VPIC/FLASH/HACC sweep kernels
/// (§III-C/D). Prints a short training report.
std::unique_ptr<core::TunIO> trained_tunio(const cfg::ConfigSpace& space);

/// Prints a tuning curve as "iteration, best bandwidth, minutes" rows.
void print_curve(const std::string& label, const tuner::TuningResult& result,
                 unsigned stride = 1);

/// Prints the RoTI curve of a run.
void print_roti_curve(const std::string& label,
                      const tuner::TuningResult& result, unsigned stride = 1);

/// Formats MB/s with unit scaling.
std::string fmt_bw(double mbps);
std::string fmt_min(double minutes);

}  // namespace tunio::bench
