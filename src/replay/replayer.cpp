#include "replay/replayer.hpp"

#include <bit>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "hdf5lite/file.hpp"
#include "workloads/ops.hpp"

namespace tunio::replay {

namespace {

class Executor {
 public:
  Executor(const OpTrace& trace, mpisim::MpiSim& mpi, pfs::PfsSimulator& fs,
           const cfg::StackSettings& settings)
      : trace_(trace), mpi_(mpi), fs_(fs), settings_(settings),
        meter_(mpi, fs) {
    files_.reserve(trace.num_files);
    datasets_.reserve(trace.num_datasets);
  }

  ReplayResult run() {
    for (const Op& op : trace_.ops) apply(op);
    TUNIO_CHECK_MSG(ended_, "op trace has no meter end");
    return result_;
  }

 private:
  h5::File& file(std::uint32_t id) {
    TUNIO_CHECK_MSG(id < files_.size(), "op trace: bad file id");
    return *files_[id];
  }

  h5::Dataset& dataset(std::uint32_t id) {
    TUNIO_CHECK_MSG(id < datasets_.size(), "op trace: bad dataset id");
    return *datasets_[id];
  }

  void apply(const Op& op) {
    switch (op.kind) {
      case OpKind::kFileCtor: {
        pfs::CreateOptions create = settings_.lustre;
        if (op.flag2) create.tier = pfs::Tier::kMemory;
        files_.push_back(std::make_unique<h5::File>(
            mpi_, fs_, op.text, settings_.fapl, settings_.mpiio, create));
        return;
      }
      case OpKind::kFileFlush:
        file(op.id).flush();
        return;
      case OpKind::kFileClose:
        file(op.id).close();
        return;
      case OpKind::kDatasetCreate: {
        h5::DatasetCreateProps dcpl;
        if (op.c > 0) dcpl.chunk_elements = op.c;
        datasets_.push_back(&file(op.id).create_dataset(
            op.text, op.a, op.b, dcpl, settings_.chunk_cache));
        return;
      }
      case OpKind::kDatasetFlush:
        dataset(op.id).flush();
        return;
      case OpKind::kDatasetIo: {
        selections_.clear();
        for (std::uint32_t i = op.sel_begin; i < op.sel_begin + op.sel_count;
             ++i) {
          const Sel& sel = trace_.sels[i];
          selections_.push_back({sel.rank, sel.start_element, sel.count});
        }
        const h5::TransferProps dxpl{op.flag2};
        if (op.flag) {
          dataset(op.id).write(selections_, dxpl);
        } else {
          dataset(op.id).read(selections_, dxpl);
        }
        return;
      }
      case OpKind::kLogWrite:
        wl::log_write(mpi_, fs_, op.text, op.a, op.flag2);
        return;
      case OpKind::kCompute:
        wl::compute_phase(mpi_, op.seconds, op.salt);
        return;
      case OpKind::kBarrier:
        mpi_.barrier();
        return;
      case OpKind::kMpiReset:
        mpi_.reset();
        return;
      case OpKind::kFsQuiesce:
        fs_.quiesce();
        return;
      case OpKind::kMeterBegin:
        meter_.begin();
        start_ = mpi_.max_clock();
        return;
      case OpKind::kPhase:
        meter_.phase_begin(static_cast<trace::Phase>(op.salt));
        return;
      case OpKind::kMeterEnd:
        result_.perf = meter_.end();
        result_.sim_seconds = mpi_.max_clock() - start_;
        ended_ = true;
        return;
    }
    TUNIO_CHECK_MSG(false, "op trace: unknown op kind");
  }

  const OpTrace& trace_;
  mpisim::MpiSim& mpi_;
  pfs::PfsSimulator& fs_;
  const cfg::StackSettings& settings_;
  trace::RunMeter meter_;
  std::vector<std::unique_ptr<h5::File>> files_;
  std::vector<h5::Dataset*> datasets_;
  std::vector<h5::Selection> selections_;  ///< reused across kDatasetIo ops
  SimSeconds start_ = 0.0;
  ReplayResult result_;
  bool ended_ = false;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

ReplayResult replay(const OpTrace& trace, mpisim::MpiSim& mpi,
                    pfs::PfsSimulator& fs,
                    const cfg::StackSettings& settings) {
  return Executor(trace, mpi, fs, settings).run();
}

bool bit_identical(const trace::PerfResult& a, const trace::PerfResult& b) {
  const trace::RunCounters& x = a.counters;
  const trace::RunCounters& y = b.counters;
  return same_bits(a.bw_read_mbps, b.bw_read_mbps) &&
         same_bits(a.bw_write_mbps, b.bw_write_mbps) &&
         same_bits(a.alpha, b.alpha) && same_bits(a.perf_mbps, b.perf_mbps) &&
         x.bytes_read == y.bytes_read && x.bytes_written == y.bytes_written &&
         x.read_ops == y.read_ops && x.write_ops == y.write_ops &&
         x.metadata_ops == y.metadata_ops &&
         same_bits(x.read_time, y.read_time) &&
         same_bits(x.write_time, y.write_time) &&
         same_bits(x.other_time, y.other_time) &&
         same_bits(x.elapsed, y.elapsed) &&
         x.read_sizes.counts == y.read_sizes.counts &&
         x.write_sizes.counts == y.write_sizes.counts;
}

}  // namespace tunio::replay
