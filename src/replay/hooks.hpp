// Recording side of the evaluation fast path.
//
// The instrumented layers — hdf5lite's File/Dataset, trace::RunMeter,
// the log and compute ops in `workloads/ops.hpp`, and the mini-C
// interpreter's builtins — report each application-level op as
//
//   if (replay::Recorder* rec = replay::active_recorder()) rec->on_...(...);
//
// `active_recorder()` is null unless a `Recorder` is installed on the
// calling thread (`RecordScope`), so the cost on unrecorded runs is one
// thread-local load per *HDF5-level* call, nothing per PFS request.
// Replayed runs never install a recorder, so replay cannot re-record
// itself.
//
// This target depends only on tunio_common; the instrumented libraries
// link it without cycles. Object identity crosses the boundary as opaque
// `const void*` keys that the recorder interns into sequential ids.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>

#include "common/units.hpp"
#include "replay/optrace.hpp"

namespace tunio::replay {

/// Accumulates one run's op stream. Not thread-safe: install on exactly
/// one thread via RecordScope and keep it there.
class Recorder {
 public:
  void on_file_ctor(const void* file, const std::string& path,
                    bool memory_tier);
  void on_file_flush(const void* file);
  void on_file_close(const void* file);
  void on_dataset_create(const void* file, const void* dataset,
                         const std::string& name, Bytes elem_size,
                         std::uint64_t num_elements,
                         std::uint64_t chunk_elements);
  void on_dataset_flush(const void* dataset);
  void on_dataset_io(const void* dataset, bool is_write, bool collective,
                     const Sel* sels, std::size_t count);
  void on_log_write(const std::string& path, Bytes bytes, bool memory_tier);
  void on_compute(double seconds, unsigned salt);
  void on_barrier();
  void on_mpi_reset();
  void on_fs_quiesce();
  void on_meter_begin();
  void on_phase(int phase);
  void on_meter_end();

  /// True when the stream is a complete, well-formed metered run (one
  /// begin/end pair, no op against an unrecorded object).
  bool valid() const;
  const std::string& error() const { return error_; }

  /// Moves the finished trace out; the recorder is spent afterwards.
  OpTrace take();

 private:
  Op& push(OpKind kind);
  void fail(const std::string& message);
  /// Id of an already-recorded object; sets the failure flag if unknown.
  std::uint32_t lookup(
      const std::unordered_map<const void*, std::uint32_t>& ids,
      const void* object, const char* what);

  OpTrace trace_;
  /// Pointer → id maps. insert_or_assign: a reused address re-binds to
  /// the newest object, mirroring what the pointer itself does.
  std::unordered_map<const void*, std::uint32_t> file_ids_;
  std::unordered_map<const void*, std::uint32_t> dataset_ids_;
  unsigned meter_begins_ = 0;
  unsigned meter_ends_ = 0;
  bool failed_ = false;
  std::string error_;
};

namespace detail {
/// Per-thread recording state. A function-local thread_local (rather
/// than an extern one) so the inline fast path below never goes through
/// the compiler's TLS wrapper, which GCC's UBSan mis-models.
struct RecordState {
  Recorder* recorder = nullptr;
  int suppress = 0;
};
inline RecordState& record_state() {
  static thread_local RecordState state;
  return state;
}
}  // namespace detail

/// The recorder installed on the calling thread, or null when nothing
/// records here or a `SuppressScope` mutes it. Call sites that must do
/// work to assemble an op (e.g. converting selections) do it only when
/// this is non-null.
inline Recorder* active_recorder() {
  const detail::RecordState& state = detail::record_state();
  return state.suppress == 0 ? state.recorder : nullptr;
}

/// Installs `recorder` on this thread for the scope's lifetime.
class RecordScope {
 public:
  explicit RecordScope(Recorder& recorder);
  ~RecordScope();
  RecordScope(const RecordScope&) = delete;
  RecordScope& operator=(const RecordScope&) = delete;

 private:
  Recorder* prev_;
};

/// Mutes recording for a scope — used by composite operations
/// (File::flush, File::close) whose callees record themselves, so one
/// recorded op stands for the whole composite.
class SuppressScope {
 public:
  SuppressScope();
  ~SuppressScope();
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;
};

}  // namespace tunio::replay
