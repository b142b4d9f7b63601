// HACC-IO: the checkpoint kernel of the HACC cosmology code.
//
// HACC checkpoints write nine particle variables, each a very large
// contiguous per-rank extent into a single shared file — the classic
// "large sequential shared-file" pattern where Lustre striping and
// aggregator placement dominate.
#include "workloads/ops.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {

namespace {

class HaccWorkload final : public Workload {
 public:
  explicit HaccWorkload(HaccParams params) : params_(params) {}

  std::string name() const override { return "HACC-IO"; }

  RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                const cfg::StackSettings& settings,
                const RunOptions& options) const override {
    OpExecutor exec(mpi, fs, settings);
    exec.meter_begin();

    exec.phase(trace::Phase::kOther);
    exec.compute(params_.compute_seconds_per_step * options.compute_scale,
                 /*salt=*/13);

    exec.phase(trace::Phase::kWrite);
    const std::uint64_t total = params_.particles_per_rank * mpi.size();
    const std::uint32_t file = exec.create_file(run_path("hacc.h5"));
    for (unsigned v = 0; v < params_.variables; ++v) {
      // xx, yy, zz, vx, vy, vz, phi are 4-byte; pid 8-byte; mask 2-byte.
      const Bytes elem = (v == 7) ? 8 : (v == 8) ? 2 : 4;
      const std::uint32_t ds = exec.create_dataset(
          file, "var" + std::to_string(v), elem, total, /*chunk_elements=*/0);
      std::vector<h5::Selection> selections;
      selections.reserve(mpi.size());
      for (unsigned r = 0; r < mpi.size(); ++r) {
        selections.push_back(
            {r, r * params_.particles_per_rank, params_.particles_per_rank});
      }
      exec.write(ds, selections, /*collective=*/true);
    }
    exec.close_file(file);

    return exec.meter_end();
  }

 private:
  HaccParams params_;
};

}  // namespace

std::unique_ptr<Workload> make_hacc(HaccParams params) {
  return std::make_unique<HaccWorkload>(params);
}

}  // namespace tunio::wl
