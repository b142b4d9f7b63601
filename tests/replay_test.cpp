// Tests for the record-once/replay-many evaluation fast path: trace
// recording, settings substitution at replay, bit-identity against the
// interpreted/native paths, static settings-invariance checks, and the
// objective-level state machine (including fallback for kernels whose op
// stream depends on the tuned settings).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/space.hpp"
#include "config/stack_settings.hpp"
#include "discovery/discovery.hpp"
#include "interp/interp.hpp"
#include "minic/parser.hpp"
#include "mpisim/mpisim.hpp"
#include "obs/metrics.hpp"
#include "pfs/pfs.hpp"
#include "replay/invariance.hpp"
#include "replay/optrace.hpp"
#include "replay/recorder.hpp"
#include "replay/replayer.hpp"
#include "trace/meter.hpp"
#include "tuner/objective.hpp"
#include "workloads/ops.hpp"
#include "workloads/sources.hpp"
#include "workloads/workload.hpp"

namespace tunio {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Deterministically varied configurations covering the space.
std::vector<cfg::Configuration> varied_configs(const cfg::ConfigSpace& space,
                                               int count) {
  std::vector<cfg::Configuration> configs;
  Rng rng(0x5EED);
  for (int i = 0; i < count; ++i) {
    cfg::Configuration config = space.default_configuration();
    for (std::size_t p = 0; p < space.num_parameters(); ++p) {
      config.set_index(p, rng.index(space.parameter(p).domain.size()));
    }
    configs.push_back(config);
  }
  return configs;
}

std::shared_ptr<const wl::Workload> small_workload(const std::string& name) {
  if (name == "VPIC-IO") {
    wl::VpicParams params;
    params.particles_per_rank = 1u << 14;
    return std::shared_ptr<const wl::Workload>(wl::make_vpic(params));
  }
  if (name == "FLASH-IO") {
    wl::FlashParams params;
    params.blocks_per_rank = 2;
    return std::shared_ptr<const wl::Workload>(wl::make_flash(params));
  }
  if (name == "HACC-IO") {
    wl::HaccParams params;
    params.particles_per_rank = 1u << 14;
    return std::shared_ptr<const wl::Workload>(wl::make_hacc(params));
  }
  if (name == "MACSio") {
    wl::MacsioParams params;
    params.num_dumps = 2;
    params.bytes_per_rank_per_dump = 1 * MiB;
    params.log_writes_per_dump = 16;
    return std::shared_ptr<const wl::Workload>(wl::make_macsio(params));
  }
  wl::BdcatsParams params;
  params.particles_per_rank = 1u << 14;
  params.clustering_rounds = 2;
  return std::shared_ptr<const wl::Workload>(wl::make_bdcats(params));
}

const char* kWorkloadNames[] = {"VPIC-IO", "FLASH-IO", "HACC-IO", "MACSio",
                                "BD-CATS"};

constexpr unsigned kRanks = 16;

tuner::TestbedOptions testbed(tuner::ReplayMode mode) {
  tuner::TestbedOptions tb;
  tb.num_ranks = kRanks;
  tb.runs_per_eval = 2;
  tb.replay = mode;
  return tb;
}

/// A kernel whose op stream branches on a tuned parameter: it must be
/// statically classified settings-dependent and never replayed.
const char* kSettingsDependentKernel = R"(
int main() {
  int per = 1024;
  if (tuned_stripe_count() > 4) {
    per = 4096;
  }
  int f = h5fcreate("/scratch/dep.h5");
  int d = h5dcreate(f, "x", 8, per * mpi_size());
  h5dwrite_all(d, per);
  h5fclose(f);
  return 0;
}
)";

// --- recorder basics ------------------------------------------------------

TEST(Recorder, EmptyRecorderIsInvalid) {
  replay::Recorder recorder;
  EXPECT_FALSE(recorder.valid());
}

TEST(Recorder, NotRecordingOutsideScope) {
  EXPECT_EQ(replay::active_recorder(), nullptr);
  replay::Recorder recorder;
  {
    replay::RecordScope scope(recorder);
    EXPECT_EQ(replay::active_recorder(), &recorder);
  }
  EXPECT_EQ(replay::active_recorder(), nullptr);
}

TEST(Recorder, OpOnObjectCreatedBeforeRecordingIsInvalid) {
  // A trace must name only objects it created: recording that starts
  // after a file exists cannot be replayed.
  mpisim::MpiSim mpi(kRanks);
  pfs::PfsSimulator fs;
  const cfg::StackSettings settings = cfg::default_settings();
  wl::OpExecutor exec(mpi, fs, settings);
  const std::uint32_t file = exec.create_file("/scratch/early.h5", false);
  replay::Recorder recorder;
  {
    replay::RecordScope scope(recorder);
    exec.meter_begin();
    exec.flush_file(file);
    exec.meter_end();
  }
  EXPECT_FALSE(recorder.valid());
  EXPECT_NE(recorder.error().find("unrecorded file"), std::string::npos)
      << recorder.error();
}

TEST(Recorder, CapturesInterpreterRun) {
  replay::Recorder recorder;
  const minic::Program program = minic::parse(wl::sources::vpic());
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    interp::execute(program, mpi, fs,
                    cfg::default_settings());
  }
  ASSERT_TRUE(recorder.valid()) << recorder.error();
  const replay::OpTrace trace = recorder.take();
  EXPECT_GT(trace.ops.size(), 10u);
  EXPECT_GT(trace.num_files, 0u);
  EXPECT_GT(trace.num_datasets, 0u);
  EXPECT_EQ(trace.ops.front().kind, replay::OpKind::kMeterBegin);
  EXPECT_EQ(trace.ops.back().kind, replay::OpKind::kMeterEnd);
}

// --- differential replay vs interpretation --------------------------------

/// Stack settings to replay under, each with a label for failure messages.
using LabelledSettings =
    std::vector<std::pair<std::string, cfg::StackSettings>>;

/// Records one interpreted run at default settings, then checks that
/// replaying the trace under each of `targets` is bit-identical to
/// interpreting the program under those settings.
void expect_replay_matches_interp(const minic::Program& program,
                                  const LabelledSettings& targets) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  replay::Recorder recorder;
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    interp::execute(program, mpi, fs,
                    cfg::resolve(space.default_configuration()));
  }
  ASSERT_TRUE(recorder.valid()) << recorder.error();
  const replay::OpTrace trace = recorder.take();

  for (const auto& [label, settings] : targets) {
    mpisim::MpiSim interp_mpi(kRanks);
    pfs::PfsSimulator interp_fs;
    const interp::InterpResult want =
        interp::execute(program, interp_mpi, interp_fs, settings);
    mpisim::MpiSim replay_mpi(kRanks);
    pfs::PfsSimulator replay_fs;
    const replay::ReplayResult got =
        replay::replay(trace, replay_mpi, replay_fs, settings);
    EXPECT_TRUE(replay::bit_identical(want.perf, got.perf))
        << "perf diverged at " << label;
    EXPECT_TRUE(same_bits(want.sim_seconds, got.sim_seconds))
        << "sim time diverged at " << label;
  }
}

/// The same check under several deterministically varied configurations.
void expect_replay_matches_interp(const minic::Program& program) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  LabelledSettings targets;
  for (const cfg::Configuration& config : varied_configs(space, 4)) {
    targets.emplace_back(config.to_string(), cfg::resolve(config));
  }
  expect_replay_matches_interp(program, targets);
}

TEST(ReplayDifferential, VpicSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::vpic()));
}

TEST(ReplayDifferential, FlashSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::flash()));
}

TEST(ReplayDifferential, HaccSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::hacc()));
}

TEST(ReplayDifferential, MacsioSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::macsio_vpic()));
}

TEST(ReplayDifferential, BdcatsSource) {
  expect_replay_matches_interp(minic::parse(wl::sources::bdcats()));
}

TEST(ReplayDifferential, DiscoveredKernels) {
  for (const char* name : kWorkloadNames) {
    discovery::DiscoveryOptions options;
    options.loop_reduction = 0.01;
    options.path_switching = true;
    const discovery::KernelResult kernel =
        discovery::discover_io(*wl::sources::source_for(name), options);
    SCOPED_TRACE(name);
    expect_replay_matches_interp(kernel.kernel);
  }
}

/// Rank 0 appends to a stdio log between two collective writes of one
/// dataset, with no compute in between: a log on disk still has appends
/// queued on its OST when the second write needs that OST.
const char* kLoggingProgram = R"(
int main() {
  int f = h5fcreate("/scratch/logged.h5");
  int d = h5dcreate(f, "x", 8, 4096 * mpi_size());
  h5dwrite_all(d, 4096);
  for (int i = 0; i < 40; i = i + 1) {
    fprintf_log("/scratch/run.log", 3000);
  }
  h5dwrite_all(d, 4096);
  compute(0.01);
  h5fclose(f);
  return 0;
}
)";

TEST(ReplayDifferential, LogWritesUnderPathSwitchingAndTunedStripes) {
  // Replay must build each log from the settings and tier it runs under,
  // not the recorded ones. Striping the dataset over the whole OST pool
  // puts a disk log on an OST the dataset uses.
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const cfg::StackSettings defaults =
      cfg::resolve(space.default_configuration());
  LabelledSettings targets;
  for (const Bytes stripe_size : {64 * KiB, 16 * MiB}) {
    cfg::StackSettings tuned = defaults;
    tuned.lustre.stripe_size = stripe_size;
    tuned.lustre.stripe_count = pfs::PfsProfile{}.num_osts;
    targets.emplace_back("stripe size " + std::to_string(stripe_size), tuned);
  }
  const std::string source = kLoggingProgram;
  {
    SCOPED_TRACE("as written: disk log");
    expect_replay_matches_interp(minic::parse(source), targets);
  }
  {
    // The log path as I/O Path Switching rewrites it; the dataset stays
    // on disk.
    SCOPED_TRACE("memory-tier log beside a disk dataset");
    std::string switched_log = source;
    switched_log.insert(switched_log.find("/scratch/run.log"),
                        discovery::kMemoryPathPrefix);
    expect_replay_matches_interp(minic::parse(switched_log), targets);
  }
  discovery::DiscoveryOptions options;
  options.io_prefixes = {"h5", "fprintf_log"};  // keep the log
  options.path_switching = true;
  const discovery::KernelResult kernel =
      discovery::discover_io(source, options);
  ASSERT_NE(kernel.kernel_source.find("fprintf_log(\"/shm/"),
            std::string::npos);
  SCOPED_TRACE("path-switched kernel");
  expect_replay_matches_interp(kernel.kernel, targets);
}

/// FNV-1a over the bit patterns of a run's `PerfResult` and sim time.
void hash_run(std::uint64_t& hash, const trace::PerfResult& perf,
              SimSeconds sim_seconds) {
  auto add = [&hash](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ull;
    }
  };
  auto add_double = [&add](double d) { add(std::bit_cast<std::uint64_t>(d)); };
  const trace::RunCounters& c = perf.counters;
  for (const double d : {perf.bw_read_mbps, perf.bw_write_mbps, perf.alpha,
                         perf.perf_mbps, c.read_time, c.write_time,
                         c.other_time, c.elapsed, sim_seconds}) {
    add_double(d);
  }
  for (const std::uint64_t v :
       {c.bytes_read, c.bytes_written, c.read_ops, c.write_ops,
        c.metadata_ops}) {
    add(v);
  }
  for (const std::uint64_t v : c.read_sizes.counts) add(v);
  for (const std::uint64_t v : c.write_sizes.counts) add(v);
}

TEST(LogWrite, MacsioSourceResultsArePinnedUnderTunedStripes) {
  // The full MACSio source logs every dump. A log always gets one stripe,
  // so the tuned stripe settings must not reach its writes: this pins
  // the interpreted results under two stripe sizes.
  const minic::Program program = minic::parse(wl::sources::macsio_vpic());
  const cfg::StackSettings defaults =
      cfg::resolve(cfg::ConfigSpace::tunio12().default_configuration());
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const Bytes stripe_size : {64 * KiB, 16 * MiB}) {
    cfg::StackSettings tuned = defaults;
    tuned.lustre.stripe_size = stripe_size;
    tuned.lustre.stripe_count = pfs::PfsProfile{}.num_osts;
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    const interp::InterpResult run =
        interp::execute(program, mpi, fs, tuned);
    hash_run(hash, run.perf, run.sim_seconds);
  }
  EXPECT_EQ(hash, 0x37adfdba50c1c690ull) << std::hex << "0x" << hash;
}

/// Records a native workload driver's run under `options` and checks
/// replay matches a fresh driver run under other configurations.
void expect_replay_matches_driver(const std::string& name,
                                  const wl::RunOptions& options = {}) {
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const std::shared_ptr<const wl::Workload> workload = small_workload(name);
  replay::Recorder recorder;
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    workload->run(mpi, fs, cfg::resolve(space.default_configuration()),
                  options);
  }
  ASSERT_TRUE(recorder.valid()) << recorder.error();
  const replay::OpTrace trace = recorder.take();

  for (const cfg::Configuration& config : varied_configs(space, 2)) {
    const cfg::StackSettings settings = cfg::resolve(config);
    mpisim::MpiSim driver_mpi(kRanks);
    pfs::PfsSimulator driver_fs;
    const wl::RunResult want =
        workload->run(driver_mpi, driver_fs, settings, options);
    mpisim::MpiSim replay_mpi(kRanks);
    pfs::PfsSimulator replay_fs;
    const replay::ReplayResult got =
        replay::replay(trace, replay_mpi, replay_fs, settings);
    EXPECT_TRUE(replay::bit_identical(want.perf, got.perf))
        << name << " perf diverged at " << config.to_string();
    EXPECT_TRUE(same_bits(want.sim_seconds, got.sim_seconds))
        << name << " sim time diverged at " << config.to_string();
  }
}

TEST(ReplayDifferential, NativeDrivers) {
  for (const char* name : kWorkloadNames) {
    SCOPED_TRACE(name);
    expect_replay_matches_driver(name);
  }
}

TEST(ReplayDifferential, NativeDriversUnderRunOptions) {
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  kernel.include_log_writes = false;
  wl::RunOptions no_logs;
  no_logs.include_log_writes = false;
  for (const auto& [label, options] :
       {std::pair<const char*, wl::RunOptions>{"kernel", kernel},
        {"no log writes", no_logs}}) {
    for (const char* name : kWorkloadNames) {
      SCOPED_TRACE(std::string(name) + ", " + label);
      expect_replay_matches_driver(name, options);
    }
  }
}

// --- op-trace pins ----------------------------------------------------------

/// One FNV-1a step over the eight bytes of `v`.
void fnv_add(std::uint64_t& hash, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (v >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ull;
  }
}

/// FNV-1a over the exact bits of every field of a trace, selections
/// included: two traces hash alike only if replaying them is identical.
std::uint64_t trace_hash(const replay::OpTrace& trace) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  fnv_add(hash, trace.num_files);
  fnv_add(hash, trace.num_datasets);
  fnv_add(hash, trace.ops.size());
  for (const replay::Op& op : trace.ops) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(op.kind), std::uint64_t{op.flag},
          std::uint64_t{op.flag2}, std::uint64_t{op.id}, op.a, op.b, op.c,
          std::bit_cast<std::uint64_t>(op.seconds), std::uint64_t{op.salt},
          std::uint64_t{op.sel_begin}, std::uint64_t{op.sel_count},
          std::uint64_t{op.text.size()}}) {
      fnv_add(hash, v);
    }
    for (const char ch : op.text) fnv_add(hash, static_cast<unsigned char>(ch));
  }
  fnv_add(hash, trace.sels.size());
  for (const auto& sel : trace.sels) {
    fnv_add(hash, sel.rank);
    fnv_add(hash, sel.start_element);
    fnv_add(hash, sel.count);
  }
  return hash;
}

/// Records one run on a fresh 16-rank stack.
replay::OpTrace record_run(
    const std::function<void(mpisim::MpiSim&, pfs::PfsSimulator&)>& run) {
  replay::Recorder recorder;
  {
    mpisim::MpiSim mpi(kRanks);
    pfs::PfsSimulator fs;
    replay::RecordScope scope(recorder);
    run(mpi, fs);
  }
  EXPECT_TRUE(recorder.valid()) << recorder.error();
  return recorder.take();
}

std::shared_ptr<const wl::Workload> default_workload(const std::string& name) {
  if (name == "VPIC-IO") return wl::make_vpic();
  if (name == "FLASH-IO") return wl::make_flash();
  if (name == "HACC-IO") return wl::make_hacc();
  if (name == "MACSio") return wl::make_macsio();
  return wl::make_bdcats();
}

/// The trace hashes of every executor's op stream. `label` names the
/// run; `hash` is what the recorded trace must hash to.
struct TracePin {
  std::string label;
  std::uint64_t hash;
};

void expect_pins(const std::vector<TracePin>& got,
                 const std::vector<TracePin>& want) {
  ASSERT_EQ(got.size(), want.size());
  std::ostringstream all;
  for (const TracePin& pin : got) {
    all << "{\"" << pin.label << "\", 0x" << std::hex << pin.hash << "ull},\n";
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].hash, want[i].hash) << got[i].label << "\n" << all.str();
  }
}

TEST(OpTracePins, NativeDrivers) {
  // Each driver at its default parameters, as the full application and
  // as the I/O kernel (compute and log writes stripped) that the benches
  // and examples tune.
  wl::RunOptions kernel;
  kernel.compute_scale = 0.0;
  kernel.include_log_writes = false;
  const cfg::StackSettings settings = cfg::default_settings();
  std::vector<TracePin> got;
  for (const char* name : kWorkloadNames) {
    const std::shared_ptr<const wl::Workload> workload =
        default_workload(name);
    for (const auto& [label, options] :
         {std::pair<const char*, wl::RunOptions>{"driver", {}},
          {"driver kernel", kernel}}) {
      const replay::OpTrace trace =
          record_run([&](mpisim::MpiSim& mpi, pfs::PfsSimulator& fs) {
            workload->run(mpi, fs, settings, options);
          });
      got.push_back({std::string(name) + " " + label, trace_hash(trace)});
    }
  }
  expect_pins(got, {
                       {"VPIC-IO driver", 0x68c6f858667b2d62ull},
                       {"VPIC-IO driver kernel", 0xb6704febea05edf5ull},
                       {"FLASH-IO driver", 0xdebe63a159d4813full},
                       {"FLASH-IO driver kernel", 0xaf04ad974ee10542ull},
                       {"HACC-IO driver", 0xec3b0a26c0af0ba7ull},
                       {"HACC-IO driver kernel", 0x9b6ad5f61fb2bae4ull},
                       {"MACSio driver", 0x957f28faebf32475ull},
                       {"MACSio driver kernel", 0xe1995288fc0b15fcull},
                       {"BD-CATS driver", 0x4fc60946ab46065bull},
                       {"BD-CATS driver kernel", 0xbea42288871ae197ull},
                   });
}

TEST(OpTracePins, SourcesAndDiscoveredKernels) {
  discovery::DiscoveryOptions options;
  options.loop_reduction = 0.01;
  options.path_switching = true;
  std::vector<TracePin> got;
  for (const char* name : kWorkloadNames) {
    const std::string source = *wl::sources::source_for(name);
    for (const auto& [label, program] :
         {std::pair<std::string, minic::Program>{"source",
                                                 minic::parse(source)},
          {"source kernel", discovery::discover_io(source, options).kernel}}) {
      const replay::OpTrace trace =
          record_run([&](mpisim::MpiSim& mpi, pfs::PfsSimulator& fs) {
            interp::execute(program, mpi, fs, cfg::default_settings());
          });
      got.push_back({std::string(name) + " " + label, trace_hash(trace)});
    }
  }
  expect_pins(got, {
                       {"VPIC-IO source", 0xb2fe71a4deceec9bull},
                       {"VPIC-IO source kernel", 0x390c49925a8a991full},
                       {"FLASH-IO source", 0xb9dfb6b53c8b57a5ull},
                       {"FLASH-IO source kernel", 0x283772c60b53a56eull},
                       {"HACC-IO source", 0xc03cc568427bb6cfull},
                       {"HACC-IO source kernel", 0xc4c1d59353563c67ull},
                       {"MACSio source", 0xe08c615c3ab1720aull},
                       {"MACSio source kernel", 0x478bc6618b611787ull},
                       {"BD-CATS source", 0x23632ac286176147ull},
                       {"BD-CATS source kernel", 0xaf69b692a9501482ull},
                   });
}

TEST(OpTracePins, DatasetOpenReturnsANewHandleToTheSameDataset) {
  // h5dopen hands the program a fresh handle, but the trace names the
  // dataset the handle points to, so both handles hit dataset 0.
  const minic::Program program = minic::parse(R"(
int main() {
  int f = h5fcreate("/scratch/open.h5");
  int d = h5dcreate(f, "x", 8, 1024 * mpi_size());
  int e = h5dopen(f, "x");
  h5dwrite_all(d, 512);
  h5dread_all(e, 512);
  h5dclose(e);
  h5fclose(f);
  return d * 100 + e;
}
)");
  interp::InterpResult result;
  const replay::OpTrace trace =
      record_run([&](mpisim::MpiSim& mpi, pfs::PfsSimulator& fs) {
        result = interp::execute(program, mpi, fs, cfg::default_settings());
      });
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(trace.num_datasets, 1u);
  int dataset_ops = 0;
  for (const replay::Op& op : trace.ops) {
    if (op.kind == replay::OpKind::kDatasetIo ||
        op.kind == replay::OpKind::kDatasetFlush) {
      EXPECT_EQ(op.id, 0u);
      ++dataset_ops;
    }
  }
  EXPECT_EQ(dataset_ops, 3);
  expect_pins({{"h5dopen", trace_hash(trace)}}, {{"h5dopen", 0xdd39778dd80c7168ull}});
}

// --- static settings-invariance -------------------------------------------

TEST(ReplayInvariance, WorkloadSourcesAreSettingsInvariant) {
  for (const char* name : kWorkloadNames) {
    const auto source = wl::sources::source_for(name);
    ASSERT_TRUE(source.has_value()) << name;
    EXPECT_FALSE(replay::settings_dependent(minic::parse(*source))) << name;
  }
}

TEST(ReplayInvariance, UnknownWorkloadNameHasNoSource) {
  EXPECT_FALSE(wl::sources::source_for("NOT-A-WORKLOAD").has_value());
}

TEST(ReplayInvariance, TunedBranchIsSettingsDependent) {
  EXPECT_TRUE(
      replay::settings_dependent(minic::parse(kSettingsDependentKernel)));
}

TEST(ReplayInvariance, DeadTunedReadStaysInvariant) {
  // The def-use slicer proves the tuned value never reaches an op-emitting
  // statement, so the trace is reusable despite the tuned_* call.
  const minic::Program program = minic::parse(R"(
int main() {
  int unused = tuned_cb_nodes();
  int f = h5fcreate("/scratch/dead.h5");
  int d = h5dcreate(f, "x", 8, 1024 * mpi_size());
  h5dwrite_all(d, 1024);
  h5fclose(f);
  return 0;
}
)");
  EXPECT_FALSE(replay::settings_dependent(program));
}

TEST(ReplayInvariance, TunedBuiltinsReadTheSettings) {
  // tuned_* builtins must report the active configuration so a kernel can
  // genuinely branch on it (which is what disqualifies it from replay).
  const minic::Program program = minic::parse(R"(
int main() {
  return tuned_stripe_count() * 1000000 + tuned_stripe_size_kib() * 100
       + tuned_cb_nodes();
}
)");
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  cfg::Configuration config = space.default_configuration();
  config.set_index(space.index_of("striping_factor"), 3);
  const cfg::StackSettings settings = cfg::resolve(config);
  mpisim::MpiSim mpi(kRanks);
  pfs::PfsSimulator fs;
  const interp::InterpResult result =
      interp::execute(program, mpi, fs, settings);
  const std::int64_t expected =
      static_cast<std::int64_t>(settings.lustre.stripe_count.value_or(
          fs.profile().default_stripe_count)) *
          1000000 +
      static_cast<std::int64_t>(
          settings.lustre.stripe_size.value_or(
              fs.profile().default_stripe_size) /
          1024) *
          100 +
      static_cast<std::int64_t>(settings.mpiio.cb_nodes);
  EXPECT_EQ(result.exit_code, expected);
}

// --- statement-granular taint gate ----------------------------------------

/// A tuned read that is dead at every op site *by value flow*, but which
/// the PR-4 slicer keeps (its scope-level rule sees `s` reach the write
/// without noticing the overwrite kills the tuned value). The taint gate
/// must recover it for the fast path.
const char* kTaintRecoverableKernel = R"(
int main() {
  int s = tuned_stripe_count();
  s = 8;
  int f = h5fcreate("/scratch/recov.h5");
  int d = h5dcreate(f, "x", 8, 1024 * mpi_size());
  h5dwrite_all(d, s * 128);
  h5fclose(f);
  return 0;
}
)";

TEST(TaintGate, RecoversOverwrittenTunedRead) {
  const minic::Program program = minic::parse(kTaintRecoverableKernel);
  const replay::InvarianceReport report = replay::analyze_invariance(program);
  EXPECT_FALSE(report.dependent) << report.reason;
  EXPECT_FALSE(report.unanalyzable);
  // The def-use slicer rejects this program; taint admitted it.
  EXPECT_TRUE(replay::slicer_dependent(program));
}

TEST(TaintGate, ReportNamesTheTaintedSite) {
  const replay::InvarianceReport report =
      replay::analyze_invariance(minic::parse(kSettingsDependentKernel));
  EXPECT_TRUE(report.dependent);
  EXPECT_FALSE(report.unanalyzable);
  EXPECT_GE(report.tainted_sites, 1);
  EXPECT_NE(report.reason.find("tuned value reaches"), std::string::npos)
      << report.reason;
}

TEST(TaintGate, InvariantProgramReportsWhy) {
  const replay::InvarianceReport report =
      replay::analyze_invariance(minic::parse(wl::sources::vpic()));
  EXPECT_FALSE(report.dependent);
  EXPECT_FALSE(report.reason.empty());
}

TEST(TaintGate, UnanalyzableProgramReportsWhy) {
  // Recursion exceeds the abstract interpreter's soundness envelope: the
  // gate must fall back to dependent and say so, not silently degrade.
  const replay::InvarianceReport report =
      replay::analyze_invariance(minic::parse(R"(
int f(int n) {
  if (n > 0) { return f(n - 1); }
  return 0;
}
int main() {
  int x = f(tuned_cb_nodes());
  int h = h5fcreate("/scratch/r.h5");
  h5fclose(h);
  return x;
}
)"));
  EXPECT_TRUE(report.dependent);
  EXPECT_TRUE(report.unanalyzable);
  EXPECT_NE(report.reason.find("static analysis failed"), std::string::npos)
      << report.reason;
}

TEST(TaintGate, TaintedControlExitIsDependent) {
  // No op site is tainted, but an early return under tainted control can
  // skip later ops — the op *stream* still depends on the settings.
  const replay::InvarianceReport report =
      replay::analyze_invariance(minic::parse(R"(
int main() {
  int f = h5fcreate("/scratch/e.h5");
  if (tuned_cb_nodes() > 2) {
    h5fclose(f);
    return 1;
  }
  int d = h5dcreate(f, "x", 8, 1024);
  h5dwrite_all(d, 64);
  h5fclose(f);
  return 0;
}
)"));
  EXPECT_TRUE(report.dependent);
}

// --- objective-level fast path --------------------------------------------

std::uint64_t replayed_count() {
  return obs::MetricsRegistry::global().counter("tuner.eval.replayed").value();
}

/// Evaluates varied configurations with the fast path on (kAuto) and off
/// (kOff) and requires bit-identical results. An eligible objective
/// records on eval 1 and verifies on eval 2, so every later kAuto
/// evaluation replays and is checked against the interpreter here.
void expect_objective_modes_agree(
    const std::function<std::unique_ptr<tuner::Objective>(
        tuner::TestbedOptions)>& make,
    int num_configs) {
  ASSERT_GE(num_configs, 3);
  auto interpreted = make(testbed(tuner::ReplayMode::kOff));
  auto automatic = make(testbed(tuner::ReplayMode::kAuto));
  const std::uint64_t before = replayed_count();
  for (const cfg::Configuration& config :
       varied_configs(cfg::ConfigSpace::tunio12(), num_configs)) {
    const tuner::Evaluation off = interpreted->evaluate(config);
    const tuner::Evaluation on = automatic->evaluate(config);
    EXPECT_TRUE(same_bits(off.perf_mbps, on.perf_mbps));
    EXPECT_TRUE(same_bits(off.eval_seconds, on.eval_seconds));
    EXPECT_TRUE(replay::bit_identical(off.detail, on.detail));
  }
  const int replays =
      automatic->replay_gate().eligible ? num_configs - 2 : 0;
  EXPECT_EQ(replayed_count() - before, static_cast<std::uint64_t>(replays));
}

TEST(ReplayObjective, KernelObjectiveModesAgree) {
  discovery::DiscoveryOptions options;
  options.loop_reduction = 0.01;
  options.path_switching = true;
  const discovery::KernelResult kernel =
      discovery::discover_io(wl::sources::macsio_vpic(), options);
  expect_objective_modes_agree(
      [&](tuner::TestbedOptions tb) {
        return tuner::make_kernel_objective(kernel.kernel, tb);
      },
      5);
}

TEST(ReplayObjective, WorkloadObjectiveModesAgree) {
  for (const char* name : kWorkloadNames) {
    SCOPED_TRACE(name);
    const std::shared_ptr<const wl::Workload> workload = small_workload(name);
    expect_objective_modes_agree(
        [&](tuner::TestbedOptions tb) {
          return tuner::make_workload_objective(workload, tb);
        },
        3);
  }
}

TEST(ReplayObjective, SettingsDependentKernelFallsBack) {
  // The static check must keep a kernel whose op stream changes with the
  // settings on the interpreted path: kAuto replays nothing and matches
  // kOff bit for bit, and the two stripe-count extremes legitimately
  // produce different results.
  const minic::Program program = minic::parse(kSettingsDependentKernel);
  ASSERT_TRUE(replay::settings_dependent(program));
  auto automatic =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kAuto));
  auto interpreted =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kOff));
  const cfg::ConfigSpace& space = cfg::ConfigSpace::tunio12();
  const std::size_t stripes = space.index_of("striping_factor");
  cfg::Configuration narrow = space.default_configuration();
  narrow.set_index(stripes, 0);
  cfg::Configuration wide = space.default_configuration();
  wide.set_index(stripes,
                 space.parameter(stripes).domain.size() - 1);
  ASSERT_LE(narrow.value("striping_factor"), 4u);
  ASSERT_GT(wide.value("striping_factor"), 4u);
  const std::uint64_t before = replayed_count();
  std::vector<tuner::Evaluation> results;
  for (const cfg::Configuration& config :
       {narrow, wide, space.default_configuration()}) {
    const tuner::Evaluation on = automatic->evaluate(config);
    const tuner::Evaluation off = interpreted->evaluate(config);
    EXPECT_TRUE(same_bits(on.perf_mbps, off.perf_mbps));
    EXPECT_TRUE(same_bits(on.eval_seconds, off.eval_seconds));
    EXPECT_TRUE(replay::bit_identical(on.detail, off.detail));
    results.push_back(on);
  }
  EXPECT_EQ(replayed_count() - before, 0u);
  // The wide configuration writes 4x the data; the op streams genuinely
  // differ, which is exactly why this kernel must not be replayed.
  EXPECT_NE(results[0].detail.counters.bytes_written,
            results[1].detail.counters.bytes_written);
}

TEST(ReplayObjective, AutoModeReplaysFromThirdEvaluationOn) {
  obs::Counter& replayed =
      obs::MetricsRegistry::global().counter("tuner.eval.replayed");
  const std::uint64_t before = replayed.value();
  const minic::Program program = minic::parse(wl::sources::vpic());
  auto objective =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kAuto));
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const std::vector<cfg::Configuration> configs = varied_configs(space, 5);
  // Eval 1 records, eval 2 verifies; evals 3..5 must replay.
  for (const cfg::Configuration& config : configs) {
    objective->evaluate(config);
  }
  EXPECT_EQ(replayed.value() - before, 3u);
}

TEST(ReplayObjective, TaintRecoveredKernelReplaysBitIdentically) {
  // The acceptance case for the taint-widened gate: a kernel the PR-4
  // slicer classified settings-dependent (so it never replayed) is
  // proven invariant by taint and must now ride the fast path, bit for
  // bit with the interpreter.
  const minic::Program program = minic::parse(kTaintRecoverableKernel);
  ASSERT_FALSE(replay::settings_dependent(program));
  auto objective =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kAuto));
  EXPECT_TRUE(objective->replay_gate().eligible)
      << objective->replay_gate().reason;
  expect_objective_modes_agree(
      [&](tuner::TestbedOptions tb) {
        return tuner::make_kernel_objective(program, tb);
      },
      5);
  // And the fast path genuinely engages: kAuto replays from eval 3 on.
  obs::Counter& replayed =
      obs::MetricsRegistry::global().counter("tuner.eval.replayed");
  const std::uint64_t before = replayed.value();
  auto auto_objective =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kAuto));
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  for (const cfg::Configuration& config : varied_configs(space, 4)) {
    auto_objective->evaluate(config);
  }
  EXPECT_EQ(replayed.value() - before, 2u);
}

TEST(ReplayObjective, GateReasonExplainsIneligibility) {
  const minic::Program program = minic::parse(kSettingsDependentKernel);
  auto objective =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kAuto));
  const tuner::ReplayGate gate = objective->replay_gate();
  EXPECT_FALSE(gate.eligible);
  EXPECT_NE(gate.reason.find("tuned value reaches"), std::string::npos)
      << gate.reason;
}

TEST(ReplayObjective, ReplayModeOffNeverRecords) {
  // HACC's source is settings-invariant, so only the mode keeps it off the
  // fast path, and the gate says so.
  const minic::Program program = minic::parse(wl::sources::hacc());
  auto objective =
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kOff));
  const tuner::ReplayGate gate = objective->replay_gate();
  EXPECT_FALSE(gate.eligible);
  EXPECT_EQ(gate.reason, "replay switched off");
  EXPECT_TRUE(
      tuner::make_kernel_objective(program, testbed(tuner::ReplayMode::kAuto))
          ->replay_gate()
          .eligible);
  const cfg::ConfigSpace space = cfg::ConfigSpace::tunio12();
  const std::uint64_t before = replayed_count();
  const tuner::Evaluation a =
      objective->evaluate(space.default_configuration());
  const tuner::Evaluation b =
      objective->evaluate(space.default_configuration());
  const tuner::Evaluation c =
      objective->evaluate(space.default_configuration());
  EXPECT_TRUE(same_bits(a.perf_mbps, b.perf_mbps));
  EXPECT_TRUE(same_bits(a.perf_mbps, c.perf_mbps));
  EXPECT_EQ(replayed_count() - before, 0u);
}

}  // namespace
}  // namespace tunio
