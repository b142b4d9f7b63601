// VPIC-IO: the particle-dump kernel of the VPIC plasma physics code.
//
// Each timestep, every rank appends its particles to eight 1-D variables
// (x, y, z, ux, uy, uz, energy as 4-byte floats; id as 8-byte ints) of a
// shared HDF5 file using collective writes — the canonical write-heavy
// HPC I/O benchmark (α = 1).
#include <sstream>

#include "workloads/detail.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {

namespace {

class VpicWorkload final : public Workload {
 public:
  explicit VpicWorkload(VpicParams params) : params_(params) {}

  std::string name() const override { return "VPIC-IO"; }
  double design_alpha() const override { return 1.0; }

  RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                const cfg::StackSettings& settings,
                const RunOptions& options) const override {
    const unsigned steps =
        detail::reduce_iterations(params_.timesteps, options.loop_scale);

    OpExecutor exec(mpi, fs, settings);
    exec.meter_begin();

    static constexpr const char* kVars[] = {"x",  "y",  "z",      "ux",
                                            "uy", "uz", "energy", "id"};
    const std::uint64_t total =
        params_.particles_per_rank * mpi.size();

    for (unsigned step = 0; step < steps; ++step) {
      exec.phase(trace::Phase::kOther);
      exec.compute(params_.compute_seconds_per_step * options.compute_scale,
                   /*salt=*/step);

      exec.phase(trace::Phase::kWrite);
      std::ostringstream path;
      path << options.path_prefix << "_vpic_t" << step << ".h5";
      const std::uint32_t file =
          exec.create_file(path.str(), options.memory_tier);
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

    return exec.meter_end(
        detail::extrapolation_factor(params_.timesteps, steps));
  }

 private:
  VpicParams params_;
};

}  // namespace

std::unique_ptr<Workload> make_vpic(VpicParams params) {
  return std::make_unique<VpicWorkload>(params);
}

}  // namespace tunio::wl
