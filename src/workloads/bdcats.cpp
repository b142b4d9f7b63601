// BD-CATS: parallel DBSCAN clustering of particle data.
//
// BD-CATS reads trillion-particle datasets produced by codes like VPIC
// and clusters them; its I/O profile is read-dominated (collective reads
// of coordinate variables), with long clustering compute rounds and a
// small result write at the end — the α ≈ 0 counterpart of the other
// workloads, and the application used for the paper's end-to-end
// pipeline evaluation (Figures 11 and 12).
#include "workloads/ops.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {

namespace {

class BdcatsWorkload final : public Workload {
 public:
  explicit BdcatsWorkload(BdcatsParams params) : params_(params) {}

  std::string name() const override { return "BD-CATS"; }

  RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                const cfg::StackSettings& settings,
                const RunOptions& options) const override {
    const Bytes elem = 4;
    const std::uint64_t total = params_.particles_per_rank * mpi.size();
    std::vector<h5::Selection> slabs;
    slabs.reserve(mpi.size());
    for (unsigned r = 0; r < mpi.size(); ++r) {
      slabs.push_back(
          {r, r * params_.particles_per_rank, params_.particles_per_rank});
    }

    // The input file exists before the run (produced earlier by VPIC):
    // materialize it, then rewind the clocks so its production is not
    // billed to this run.
    OpExecutor exec(mpi, fs, settings);
    const std::uint32_t input = exec.create_file(run_path("bdcats_in.h5"));
    std::vector<std::uint32_t> coords;
    coords.reserve(params_.variables);
    for (unsigned v = 0; v < params_.variables; ++v) {
      coords.push_back(exec.create_dataset(input, "coord" + std::to_string(v),
                                           elem, total, /*chunk_elements=*/0));
      exec.write(coords.back(), slabs, /*collective=*/true);
    }
    exec.flush_file(input);
    exec.mpi_reset();
    exec.fs_quiesce();

    exec.meter_begin();

    // Every clustering round streams the coordinate variables back in
    // (neighborhood queries re-scan the point set), then computes.
    for (unsigned round = 0; round < params_.clustering_rounds; ++round) {
      exec.phase(trace::Phase::kRead);
      for (const std::uint32_t ds : coords) {
        exec.read(ds, slabs, /*collective=*/true);
      }

      exec.phase(trace::Phase::kOther);
      exec.compute(params_.compute_seconds_per_round * options.compute_scale,
                   /*salt=*/100 + round);
    }
    exec.close_file(input);

    // Result write: cluster ids, small per rank.
    exec.phase(trace::Phase::kWrite);
    const std::uint64_t result_elems = params_.result_bytes_per_rank / elem;
    const std::uint32_t out = exec.create_file(run_path("bdcats_out.h5"));
    const std::uint32_t ids =
        exec.create_dataset(out, "cluster_ids", elem,
                            result_elems * mpi.size(), /*chunk_elements=*/0);
    std::vector<h5::Selection> selections;
    selections.reserve(mpi.size());
    for (unsigned r = 0; r < mpi.size(); ++r) {
      selections.push_back({r, r * result_elems, result_elems});
    }
    exec.write(ids, selections, /*collective=*/true);
    exec.close_file(out);

    return exec.meter_end();
  }

 private:
  BdcatsParams params_;
};

}  // namespace

std::unique_ptr<Workload> make_bdcats(BdcatsParams params) {
  return std::make_unique<BdcatsWorkload>(params);
}

}  // namespace tunio::wl
