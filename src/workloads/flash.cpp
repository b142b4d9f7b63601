// FLASH-IO: the checkpoint/plotfile kernel of the FLASH astrophysics
// code.
//
// FLASH writes adaptive-mesh blocks into many chunked datasets: each rank
// owns `blocks_per_rank` blocks, interleaved across ranks inside every
// dataset (rank r writes blocks r, r+P, r+2P, ...). A checkpoint touches
// `checkpoint_datasets` datasets (the "unknowns" plus grid metadata), a
// plotfile a few smaller ones — making FLASH the metadata- and
// chunk-heavy member of the workload suite.
#include <sstream>

#include "workloads/ops.hpp"
#include "workloads/workload.hpp"

namespace tunio::wl {

namespace {

class FlashWorkload final : public Workload {
 public:
  explicit FlashWorkload(FlashParams params) : params_(params) {}

  std::string name() const override { return "FLASH-IO"; }

  RunResult run(mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
                const cfg::StackSettings& settings,
                const RunOptions& options) const override {
    const unsigned blocks = params_.blocks_per_rank;

    OpExecutor exec(mpi, fs, settings);
    exec.meter_begin();

    exec.phase(trace::Phase::kOther);
    exec.compute(params_.compute_seconds_per_step * options.compute_scale,
                 /*salt=*/7);

    exec.phase(trace::Phase::kWrite);
    const Bytes elem = 8;  // double-precision unknowns
    const std::uint64_t block_elems = params_.block_bytes / elem;
    const std::uint64_t dataset_elems =
        block_elems * blocks * mpi.size();

    // Checkpoint file: every "unknown" variable is one chunked dataset
    // whose chunk is exactly one block.
    {
      const std::uint32_t file = exec.create_file(run_path("flash_chk.h5"));
      for (unsigned d = 0; d < params_.checkpoint_datasets; ++d) {
        std::ostringstream name;
        name << "unk" << d;
        const std::uint32_t ds = exec.create_dataset(
            file, name.str(), elem, dataset_elems, block_elems);
        // Blocks are interleaved across ranks: block b of rank r sits at
        // global block index b*P + r.
        for (unsigned b = 0; b < blocks; ++b) {
          std::vector<h5::Selection> selections;
          selections.reserve(mpi.size());
          for (unsigned r = 0; r < mpi.size(); ++r) {
            const std::uint64_t global_block =
                static_cast<std::uint64_t>(b) * mpi.size() + r;
            selections.push_back({r, global_block * block_elems, block_elems});
          }
          exec.write(ds, selections, /*collective=*/true);
        }
      }
      exec.close_file(file);
    }

    // Plotfile: fewer, smaller (single-precision, quarter-size) datasets.
    {
      const std::uint32_t file = exec.create_file(run_path("flash_plt.h5"));
      const std::uint64_t plot_block = block_elems / 4;
      for (unsigned d = 0; d < params_.plotfile_datasets; ++d) {
        std::ostringstream name;
        name << "plot" << d;
        const std::uint32_t ds = exec.create_dataset(
            file, name.str(), 4, plot_block * blocks * mpi.size(), plot_block);
        for (unsigned b = 0; b < blocks; ++b) {
          std::vector<h5::Selection> selections;
          selections.reserve(mpi.size());
          for (unsigned r = 0; r < mpi.size(); ++r) {
            const std::uint64_t global_block =
                static_cast<std::uint64_t>(b) * mpi.size() + r;
            selections.push_back({r, global_block * plot_block, plot_block});
          }
          exec.write(ds, selections, /*collective=*/true);
        }
      }
      exec.close_file(file);
    }

    return exec.meter_end();
  }

 private:
  FlashParams params_;
};

}  // namespace

std::unique_ptr<Workload> make_flash(FlashParams params) {
  return std::make_unique<FlashWorkload>(params);
}

}  // namespace tunio::wl
