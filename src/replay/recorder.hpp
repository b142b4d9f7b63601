// Recording side of the evaluation fast path.
//
// `wl::OpExecutor` (workloads/ops.hpp) is the one place that records: each
// of its op methods calls
//
//   if (replay::Recorder* rec = replay::active_recorder()) rec->record(...);
//
// `active_recorder()` is null unless a `Recorder` is installed on the
// calling thread (`RecordScope`), so the cost on unrecorded runs is one
// thread-local load per application-level op, nothing per PFS request.
// Replayed runs never install a recorder, so replay cannot re-record
// itself. The executor names files and datasets by the ids the trace
// uses, so the recorder only appends and checks.
#pragma once

#include <span>
#include <string>

#include "hdf5lite/dataset.hpp"
#include "replay/optrace.hpp"

namespace tunio::replay {

/// Accumulates one run's op stream. Not thread-safe: install on exactly
/// one thread via RecordScope, for the whole run, and keep it there.
class Recorder {
 public:
  /// Appends `op`. A kDatasetIo op's `selections` go to the trace's
  /// selection pool; its `sel_begin`/`sel_count` are set here.
  void record(Op op, std::span<const h5::Selection> selections = {});

  /// True when the stream is a complete, well-formed metered run (one
  /// begin/end pair, no op against an unrecorded object).
  bool valid() const;
  const std::string& error() const { return error_; }

  /// Moves the finished trace out; the recorder is spent afterwards.
  OpTrace take();

 private:
  void fail(const std::string& message);

  OpTrace trace_;
  unsigned meter_begins_ = 0;
  unsigned meter_ends_ = 0;
  bool failed_ = false;
  std::string error_;
};

namespace detail {
/// The recorder installed on this thread. A function-local thread_local
/// (rather than an extern one) so the inline fast path below never goes
/// through the compiler's TLS wrapper, which GCC's UBSan mis-models.
inline Recorder*& installed_recorder() {
  static thread_local Recorder* recorder = nullptr;
  return recorder;
}
}  // namespace detail

/// The recorder installed on the calling thread, or null when nothing
/// records here. Callers build an op only when this is non-null.
inline Recorder* active_recorder() { return detail::installed_recorder(); }

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

}  // namespace tunio::replay
