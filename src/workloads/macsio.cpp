// MACSio: the Multi-purpose, Application-Centric, Scalable I/O proxy.
//
// MACSio is a workload *generator*: it emits configurable dump cycles of
// part-sized writes interleaved with compute. Per the paper (§IV-A), the
// compute-to-I/O ratio here is baselined on observed VPIC Dipole runs.
// MACSio also writes per-dump log/status lines — small incidental writes
// that are exactly the "trivial writes" the Application I/O Discovery
// component strips when it reduces the program to its I/O kernel.
#include "workloads/ops.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {

namespace {

class MacsioWorkload final : public Workload {
 public:
  explicit MacsioWorkload(MacsioParams params) : params_(params) {}

  std::string name() const override { return "MACSio"; }

  RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                const cfg::StackSettings& settings,
                const RunOptions& options) const override {
    OpExecutor exec(mpi, fs, settings);
    exec.meter_begin();

    const std::uint64_t parts_per_rank =
        params_.bytes_per_rank_per_dump / params_.part_bytes;
    const Bytes elem = 8;
    const std::uint64_t part_elems = params_.part_bytes / elem;
    const std::uint64_t dump_elems =
        part_elems * parts_per_rank * mpi.size();
    const std::string log_path = run_path("macsio.log");

    for (unsigned dump = 0; dump < params_.num_dumps; ++dump) {
      exec.phase(trace::Phase::kOther);
      exec.compute(params_.compute_seconds_per_dump * options.compute_scale,
                   /*salt=*/dump);

      exec.phase(trace::Phase::kWrite);
      const std::uint32_t file = exec.create_file(
          run_path("macsio_" + std::to_string(dump) + ".h5"));
      const std::uint32_t ds =
          exec.create_dataset(file, "mesh", elem, dump_elems, part_elems);
      // Each rank writes its parts; parts of a rank are contiguous.
      for (std::uint64_t p = 0; p < parts_per_rank; ++p) {
        std::vector<h5::Selection> selections;
        selections.reserve(mpi.size());
        for (unsigned r = 0; r < mpi.size(); ++r) {
          const std::uint64_t base =
              (static_cast<std::uint64_t>(r) * parts_per_rank + p) *
              part_elems;
          selections.push_back({r, base, part_elems});
        }
        exec.write(ds, selections, /*collective=*/true);
      }
      exec.close_file(file);

      if (options.include_log_writes) {
        for (unsigned l = 0; l < params_.log_writes_per_dump; ++l) {
          exec.log_write(log_path, params_.log_write_bytes,
                         /*memory_tier=*/false);
        }
      }
    }

    return exec.meter_end();
  }

 private:
  MacsioParams params_;
};

}  // namespace

std::unique_ptr<Workload> make_macsio(MacsioParams params) {
  return std::make_unique<MacsioWorkload>(params);
}

}  // namespace tunio::wl
