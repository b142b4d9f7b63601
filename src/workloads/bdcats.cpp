// BD-CATS: parallel DBSCAN clustering of particle data.
//
// BD-CATS reads trillion-particle datasets produced by codes like VPIC
// and clusters them; its I/O profile is read-dominated (collective reads
// of coordinate variables), with long clustering compute rounds and a
// small result write at the end — the α ≈ 0 counterpart of the other
// workloads, and the application used for the paper's end-to-end
// pipeline evaluation (Figures 11 and 12).
#include "hdf5lite/file.hpp"
#include "replay/hooks.hpp"
#include "workloads/detail.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {

namespace {

class BdcatsWorkload final : public Workload {
 public:
  explicit BdcatsWorkload(BdcatsParams params) : params_(params) {}

  std::string name() const override { return "BD-CATS"; }
  double design_alpha() const override { return 0.05; }

  RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                const cfg::StackSettings& settings,
                const RunOptions& options) const override {
    const unsigned rounds = detail::reduce_iterations(
        params_.clustering_rounds, options.loop_scale);
    const double extrapolate =
        detail::extrapolation_factor(params_.clustering_rounds, rounds);

    const Bytes elem = 4;
    const std::uint64_t total = params_.particles_per_rank * mpi.size();
    const std::string input_path = options.path_prefix + "_bdcats_in.h5";

    // The input file exists before the run (produced earlier by VPIC):
    // materialize it, then rewind the clocks so its production is not
    // billed to this run.
    h5::File input(mpi, fs, input_path, settings.fapl, settings.mpiio,
                   detail::create_options(settings, options));
    for (unsigned v = 0; v < params_.variables; ++v) {
      h5::Dataset& ds = input.create_dataset("coord" + std::to_string(v),
                                             elem, total, {},
                                             settings.chunk_cache);
      std::vector<h5::Selection> selections;
      for (unsigned r = 0; r < mpi.size(); ++r) {
        selections.push_back(
            {r, r * params_.particles_per_rank, params_.particles_per_rank});
      }
      ds.write(selections, h5::TransferProps{true});
    }
    input.flush();
    mpi.reset();
    fs.quiesce();
    if (replay::Recorder* rec = replay::active_recorder()) {
      rec->on_mpi_reset();
      rec->on_fs_quiesce();
    }

    trace::RunMeter meter(mpi, fs);
    meter.begin();
    const SimSeconds start = mpi.max_clock();

    // Every clustering round streams the coordinate variables back in
    // (neighborhood queries re-scan the point set), then computes.
    for (unsigned round = 0; round < rounds; ++round) {
      meter.phase_begin(trace::Phase::kRead);
      for (unsigned v = 0; v < params_.variables; ++v) {
        h5::Dataset& ds = input.dataset("coord" + std::to_string(v));
        std::vector<h5::Selection> selections;
        for (unsigned r = 0; r < mpi.size(); ++r) {
          selections.push_back(
              {r, r * params_.particles_per_rank, params_.particles_per_rank});
        }
        ds.read(selections, h5::TransferProps{true});
      }

      meter.phase_begin(trace::Phase::kOther);
      compute_phase(
          mpi, params_.compute_seconds_per_round * options.compute_scale,
          /*salt=*/100 + round);
    }
    input.close();

    // Result write: cluster ids, small per rank.
    meter.phase_begin(trace::Phase::kWrite);
    {
      h5::File out(mpi, fs, options.path_prefix + "_bdcats_out.h5",
                   settings.fapl, settings.mpiio,
                   detail::create_options(settings, options));
      const std::uint64_t result_elems = params_.result_bytes_per_rank / elem;
      h5::Dataset& ds =
          out.create_dataset("cluster_ids", elem, result_elems * mpi.size(),
                             {}, settings.chunk_cache);
      std::vector<h5::Selection> selections;
      for (unsigned r = 0; r < mpi.size(); ++r) {
        selections.push_back({r, r * result_elems, result_elems});
      }
      ds.write(selections, h5::TransferProps{true});
      out.close();
    }

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
  BdcatsParams params_;
};

}  // namespace

std::unique_ptr<Workload> make_bdcats(BdcatsParams params) {
  return std::make_unique<BdcatsWorkload>(params);
}

}  // namespace tunio::wl
