// VPIC-IO: the particle-dump kernel of the VPIC plasma physics code.
//
// Each timestep, every rank appends its particles to eight 1-D variables
// (x, y, z, ux, uy, uz, energy as 4-byte floats; id as 8-byte ints) of a
// shared HDF5 file using collective writes — the canonical write-heavy
// HPC I/O benchmark (α = 1).
#include "workloads/ops.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {

namespace {

class VpicWorkload final : public Workload {
 public:
  explicit VpicWorkload(VpicParams params) : params_(params) {}

  std::string name() const override { return "VPIC-IO"; }

  RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                const cfg::StackSettings& settings,
                const RunOptions& options) const override {
    OpExecutor exec(mpi, fs, settings);
    exec.meter_begin();

    static constexpr const char* kVars[] = {"x",  "y",  "z",      "ux",
                                            "uy", "uz", "energy", "id"};
    const std::uint64_t total =
        params_.particles_per_rank * mpi.size();

    for (unsigned step = 0; step < params_.timesteps; ++step) {
      exec.phase(trace::Phase::kOther);
      exec.compute(params_.compute_seconds_per_step * options.compute_scale,
                   /*salt=*/step);

      exec.phase(trace::Phase::kWrite);
      const std::uint32_t file =
          exec.create_file(run_path("vpic_t" + std::to_string(step) + ".h5"));
      for (unsigned v = 0; v < 8; ++v) {
        const Bytes elem = (v == 7) ? 8 : 4;  // id is 64-bit
        const std::uint32_t ds = exec.create_dataset(
            file, kVars[v], elem, total, /*chunk_elements=*/0);
        std::vector<h5::Selection> selections;
        selections.reserve(mpi.size());
        for (unsigned r = 0; r < mpi.size(); ++r) {
          selections.push_back(
              {r, r * params_.particles_per_rank, params_.particles_per_rank});
        }
        exec.write(ds, selections, /*collective=*/true);
      }
      exec.close_file(file);
    }

    return exec.meter_end();
  }

 private:
  VpicParams params_;
};

}  // namespace

std::unique_ptr<Workload> make_vpic(VpicParams params) {
  return std::make_unique<VpicWorkload>(params);
}

}  // namespace tunio::wl
