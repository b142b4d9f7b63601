#include "replay/replayer.hpp"

#include <bit>
#include <vector>

#include "common/error.hpp"
#include "workloads/ops.hpp"

namespace tunio::replay {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

ReplayResult replay(const OpTrace& trace, mpisim::MpiSim& mpi,
                    pfs::PfsSimulator& fs,
                    const cfg::StackSettings& settings) {
  // Replay only creates, so the executor's handles are the trace's ids.
  wl::OpExecutor exec(mpi, fs, settings);
  std::vector<h5::Selection> selections;  // reused across kDatasetIo ops
  ReplayResult result;
  bool ended = false;
  for (const Op& op : trace.ops) {
    switch (op.kind) {
      case OpKind::kFileCtor:
        exec.create_file(op.text, op.flag2);
        break;
      case OpKind::kFileFlush:
        exec.flush_file(op.id);
        break;
      case OpKind::kFileClose:
        exec.close_file(op.id);
        break;
      case OpKind::kDatasetCreate:
        exec.create_dataset(op.id, op.text, op.a, op.b, op.c);
        break;
      case OpKind::kDatasetFlush:
        exec.flush_dataset(op.id);
        break;
      case OpKind::kDatasetIo: {
        const auto first = trace.sels.begin() + op.sel_begin;
        selections.assign(first, first + op.sel_count);
        if (op.flag) {
          exec.write(op.id, selections, op.flag2);
        } else {
          exec.read(op.id, selections, op.flag2);
        }
        break;
      }
      case OpKind::kLogWrite:
        exec.log_write(op.text, op.a, op.flag2);
        break;
      case OpKind::kCompute:
        exec.compute(op.seconds, op.salt);
        break;
      case OpKind::kBarrier:
        exec.barrier();
        break;
      case OpKind::kMpiReset:
        exec.mpi_reset();
        break;
      case OpKind::kFsQuiesce:
        exec.fs_quiesce();
        break;
      case OpKind::kMeterBegin:
        exec.meter_begin();
        break;
      case OpKind::kPhase:
        exec.phase(static_cast<trace::Phase>(op.salt));
        break;
      case OpKind::kMeterEnd: {
        const wl::RunResult run = exec.meter_end();
        result = {run.perf, run.sim_seconds};
        ended = true;
        break;
      }
    }
  }
  TUNIO_CHECK_MSG(ended, "op trace has no meter end");
  return result;
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
