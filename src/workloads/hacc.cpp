// HACC-IO: the checkpoint kernel of the HACC cosmology code.
//
// HACC checkpoints write nine particle variables, each a very large
// contiguous per-rank extent into a single shared file — the classic
// "large sequential shared-file" pattern where Lustre striping and
// aggregator placement dominate.
#include "hdf5lite/file.hpp"
#include "workloads/detail.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {

namespace {

class HaccWorkload final : public Workload {
 public:
  explicit HaccWorkload(HaccParams params) : params_(params) {}

  std::string name() const override { return "HACC-IO"; }
  double design_alpha() const override { return 1.0; }

  RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                const cfg::StackSettings& settings,
                const RunOptions& options) const override {
    const unsigned vars =
        detail::reduce_iterations(params_.variables, options.loop_scale);
    const double extrapolate =
        detail::extrapolation_factor(params_.variables, vars);

    trace::RunMeter meter(mpi, fs);
    meter.begin();
    const SimSeconds start = mpi.max_clock();

    meter.phase_begin(trace::Phase::kOther);
    compute_phase(
        mpi, params_.compute_seconds_per_step * options.compute_scale,
        /*salt=*/13);

    meter.phase_begin(trace::Phase::kWrite);
    const std::uint64_t total = params_.particles_per_rank * mpi.size();
    h5::File file(mpi, fs, options.path_prefix + "_hacc.h5", settings.fapl,
                  settings.mpiio, detail::create_options(settings, options));
    for (unsigned v = 0; v < vars; ++v) {
      // xx, yy, zz, vx, vy, vz, phi are 4-byte; pid 8-byte; mask 2-byte.
      const Bytes elem = (v == 7) ? 8 : (v == 8) ? 2 : 4;
      h5::Dataset& ds = file.create_dataset("var" + std::to_string(v), elem,
                                            total, {}, settings.chunk_cache);
      std::vector<h5::Selection> selections;
      selections.reserve(mpi.size());
      for (unsigned r = 0; r < mpi.size(); ++r) {
        selections.push_back(
            {r, r * params_.particles_per_rank, params_.particles_per_rank});
      }
      ds.write(selections, h5::TransferProps{/*collective=*/true});
    }
    file.close();

    RunResult result;
    result.perf = meter.end();
    result.sim_seconds = mpi.max_clock() - start;
    result.predicted_bytes_written =
        static_cast<double>(result.perf.counters.bytes_written) * extrapolate;
    result.predicted_write_ops =
        static_cast<double>(result.perf.counters.write_ops) * extrapolate;
    return result;
  }

 private:
  HaccParams params_;
};

}  // namespace

std::unique_ptr<Workload> make_hacc(HaccParams params) {
  return std::make_unique<HaccWorkload>(params);
}

}  // namespace tunio::wl
