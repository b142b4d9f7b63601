// A discrete-time Lustre-like parallel file system simulator.
//
// This is the storage substrate underneath the whole TunIO stack. It
// models the pieces of a Lustre deployment whose interactions the tuned
// parameters (`striping_factor`, `striping_unit`, alignment, collective
// buffering) actually exercise:
//
//   * a pool of OSTs, each a serially shared device with seek latency,
//     streaming bandwidth, per-request overhead, and a read-modify-write
//     penalty for partial-block writes;
//   * a metadata server (MDS) with per-op latency, serially shared;
//   * a shared interconnect with aggregate bandwidth and message latency;
//   * a memory tier (think `/dev/shm`) used by TunIO's I/O path
//     switching transformation.
//
// All operations take the caller's simulated clock and return the
// completion time; contention between concurrent callers emerges from
// the shared queues: the MDS's `ResourceTimeline`, each OST's FIFO queue
// and the interconnect's bandwidth horizon.
//
// A path is resolved once, by `create_file`, `open_file` or `find_file`,
// into an integer `FileHandle`; every other operation takes the handle,
// so no request hashes a string. Handles stay valid until `reset()`;
// like a POSIX fd held across unlink, a handle outlives `remove()` of its
// path.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timeline.hpp"
#include "common/units.hpp"
#include "pfs/layout.hpp"

namespace tunio::pfs {

/// Storage tier a file lives on.
enum class Tier {
  kDisk,    ///< striped across OSTs (Lustre scratch)
  kMemory,  ///< node-local memory (I/O path switching target)
};

/// Cost model for one OST.
struct OstProfile {
  SimSeconds seek_latency = 3e-3;       ///< per discontiguous request
  Bps stream_bandwidth = 2.8 * GB;      ///< sustained per-OST throughput
  SimSeconds request_overhead = 150e-6; ///< fixed RPC/service overhead
  Bytes rmw_block = 1 * MiB;            ///< write granularity of the device
  double rmw_read_factor = 1.0;         ///< cost multiple for RMW pre-reads
};

/// Cost model for the metadata server.
struct MdsProfile {
  SimSeconds op_latency = 800e-6;  ///< create/open/stat/close service time
};

/// Cost model for the interconnect between compute nodes and servers.
/// The aggregate bandwidth is *job-scoped*: a 4-node job can only inject
/// ~nodes × NIC bandwidth into the fabric regardless of its total
/// capacity. The 500-node end-to-end experiment raises this accordingly.
struct NetworkProfile {
  Bps aggregate_bandwidth = 40 * GB;  ///< 4 nodes × ~10 GB/s injection
  SimSeconds message_latency = 5e-6;
};

/// Cost model for the memory tier.
struct MemoryProfile {
  Bps bandwidth = 12 * GB;  ///< per-process memcpy-like bandwidth
  SimSeconds latency = 1e-6;
};

/// Whole-system profile. Defaults approximate Cori's scratch filesystem
/// scaled to the 4-node/128-process experiments of the paper.
struct PfsProfile {
  unsigned num_osts = 64;
  OstProfile ost;
  MdsProfile mds;
  NetworkProfile network;
  MemoryProfile memory;
  Bytes default_stripe_size = 1 * MiB;   ///< Lustre default striping_unit
  unsigned default_stripe_count = 1;     ///< Lustre default striping_factor
};

/// Access-size histogram (Darshan's POSIX_SIZE_*_ buckets, condensed).
/// Buckets: <4 KiB, 4–64 KiB, 64 KiB–1 MiB, 1–16 MiB, ≥16 MiB.
struct SizeHistogram {
  static constexpr std::size_t kBuckets = 5;
  std::array<std::uint64_t, kBuckets> counts{};
  /// Largest request recorded so far; a running max, so `operator-=`
  /// leaves it alone.
  Bytes largest = 0;

  void record(Bytes size);
  std::uint64_t total() const;
  /// Bucket label for reports ("4K-64K", ...).
  static const char* label(std::size_t bucket);

  SizeHistogram& operator-=(const SizeHistogram& other);
};

/// Aggregate operation counters (Darshan-style, PFS layer).
struct PfsCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  std::uint64_t metadata_ops = 0;
  Bytes rmw_bytes = 0;  ///< extra bytes pre-read by partial-block writes
  SizeHistogram read_sizes;
  SizeHistogram write_sizes;

  PfsCounters& operator-=(const PfsCounters& other);
};

/// Striping policy requested at file creation.
struct CreateOptions {
  std::optional<Bytes> stripe_size;      ///< default: profile default
  std::optional<unsigned> stripe_count;  ///< default: profile default
  Tier tier = Tier::kDisk;
};

/// One completed client-level I/O request (what a Darshan wrapper sees).
struct IoRequest {
  bool is_write = false;
  Bytes bytes = 0;
  SimSeconds start = 0.0;  ///< caller's clock when the request was issued
  SimSeconds end = 0.0;    ///< completion time
};

/// Observes every completed read/write against a simulator — the hook
/// `RunMeter` uses to recover op-level I/O windows for runs that never
/// mark phases, without polling counters.
class IoObserver {
 public:
  virtual ~IoObserver() = default;
  virtual void on_io(const IoRequest& request) = 0;
};

/// Stable identifier for an open simulated file (see header comment).
using FileHandle = std::uint32_t;

/// Result of resolving a file to a handle: the handle plus the
/// completion time of the MDS operation that produced it.
struct OpenResult {
  FileHandle handle = 0;
  SimSeconds done = 0.0;
};

class PfsSimulator {
 public:
  explicit PfsSimulator(PfsProfile profile = {});
  /// Flushes this simulator's accumulated counters into the global
  /// metrics registry (`pfs.*` series).
  ~PfsSimulator();

  PfsSimulator(const PfsSimulator&) = delete;
  PfsSimulator& operator=(const PfsSimulator&) = delete;

  const PfsProfile& profile() const { return profile_; }

  /// Creates (or truncates) a file; returns its handle and the
  /// completion time of the MDS op. Re-creating an existing path reuses
  /// its handle (truncate semantics: old handles see the new file).
  OpenResult create_file(const std::string& path, SimSeconds start,
                         const CreateOptions& options = {});

  /// Opens an existing file (MDS op). Throws if absent.
  OpenResult open_file(const std::string& path, SimSeconds start);

  /// Resolves a path to its handle without charging an MDS op — the
  /// analogue of consulting an already-cached dentry. Empty if absent.
  std::optional<FileHandle> find_file(const std::string& path) const;

  /// Removes a file if present (MDS op). Outstanding handles keep
  /// working, like a POSIX fd held across unlink.
  SimSeconds remove(const std::string& path, SimSeconds start);

  /// A pure-metadata operation against the MDS (stat, attr update, ...).
  SimSeconds metadata_op(SimSeconds start);

  /// Writes [offset, offset+length); returns completion time.
  SimSeconds write(FileHandle handle, SimSeconds start, Bytes offset,
                   Bytes length) {
    return request(handle, start, offset, length, /*is_write=*/true);
  }

  /// Reads [offset, offset+length); returns completion time.
  SimSeconds read(FileHandle handle, SimSeconds start, Bytes offset,
                  Bytes length) {
    return request(handle, start, offset, length, /*is_write=*/false);
  }

  Bytes file_size(FileHandle handle) const;
  Tier file_tier(FileHandle handle) const;
  const StripeLayout& file_layout(FileHandle handle) const;

  const PfsCounters& counters() const { return counters_; }

  /// At most one observer at a time; nullptr detaches. The observer must
  /// outlive its registration.
  void set_io_observer(IoObserver* observer) { observer_ = observer; }
  IoObserver* io_observer() const { return observer_; }

  /// Per-OST busy time (utilization diagnostics for benches).
  std::vector<SimSeconds> ost_busy_times() const;

  /// Clears all files, timelines and counters; keeps the profile.
  void reset();

  /// Rewinds all device/network timelines to t=0 but keeps files and
  /// counters. Used to separate a run from setup I/O that happened
  /// "before" it (e.g. producing an input dataset).
  void quiesce();

 private:
  /// Sentinel for "no request serviced on this OST object yet" — never
  /// equal to a real object offset, so first accesses are non-sequential.
  static constexpr Bytes kNeverAccessed = ~Bytes{0};

  struct File {
    StripeLayout layout;
    Tier tier = Tier::kDisk;
    Bytes size = 0;
    /// Last byte serviced per OST object, to detect sequential access.
    /// Flat vector indexed by absolute OST id (kNeverAccessed = none).
    std::vector<Bytes> last_end_per_ost;
  };

  File& file_at(FileHandle handle);
  const File& file_at(FileHandle handle) const;

  /// The body of `write` and `read`: counts the request, services it on
  /// the file's tier and returns its completion time.
  SimSeconds request(FileHandle handle, SimSeconds start, Bytes offset,
                     Bytes length, bool is_write);

  /// One OST's FIFO queue: when it is next free and the service seconds
  /// it has granted. (`ResourceTimeline`'s arithmetic, kept as two plain
  /// fields so that servicing a stripe piece is a few floating-point
  /// operations and one store; see `serve_pieces`.)
  struct OstQueue {
    SimSeconds next_free = 0.0;
    SimSeconds busy = 0.0;
  };

  /// Services a disk-tier request of `length` > 0 bytes stripe piece by
  /// stripe piece; returns its completion time.
  template <bool kWrite>
  SimSeconds serve_pieces(File& file, SimSeconds start, Bytes offset,
                          Bytes length);

  /// OST service seconds for one stripe piece: overhead and streaming
  /// time, plus, when it does not continue its object, the seek and for
  /// writes the read-modify-write pre-read (counted in `rmw_bytes`).
  SimSeconds piece_service(Bytes object_offset, Bytes length,
                           bool sequential, bool is_write);

  SimSeconds memory_io(SimSeconds start, Bytes length) const;

  /// Tells the observer and tracer about one completed request.
  void note_io(bool is_write, Bytes length, SimSeconds start, SimSeconds end);

  /// Publishes counters accumulated since the last publish (and current
  /// OST busy time) into the global metrics registry.
  void publish_metrics();

  PfsProfile profile_;
  std::vector<OstQueue> osts_;
  ResourceTimeline mds_;
  /// Time through which the interconnect's aggregate bandwidth is spoken
  /// for: transfers drain it in arrival order.
  SimSeconds network_horizon_ = 0.0;
  /// Handle-indexed file table (deque: references stay stable) plus the
  /// path index that create/open/find/remove resolve against.
  std::deque<File> files_;
  std::unordered_map<std::string, FileHandle> index_;
  PfsCounters counters_;
  PfsCounters flushed_;  ///< already published to the metrics registry
  IoObserver* observer_ = nullptr;
  unsigned next_ost_offset_ = 0;  ///< round-robin start OST for new files
};

}  // namespace tunio::pfs
