#include "replay/recorder.hpp"

namespace tunio::replay {

RecordScope::RecordScope(Recorder& recorder)
    : prev_(detail::installed_recorder()) {
  detail::installed_recorder() = &recorder;
}

RecordScope::~RecordScope() { detail::installed_recorder() = prev_; }

void Recorder::fail(const std::string& message) {
  failed_ = true;
  error_ = message;
}

void Recorder::record(Op op, std::span<const h5::Selection> selections) {
  if (failed_) return;
  switch (op.kind) {
    case OpKind::kFileCtor:
      if (op.id != trace_.num_files) {
        return fail("file created before recording began");
      }
      ++trace_.num_files;
      break;
    case OpKind::kFileFlush:
    case OpKind::kFileClose:
    case OpKind::kDatasetCreate:
      if (op.id >= trace_.num_files) return fail("op on unrecorded file");
      if (op.kind == OpKind::kDatasetCreate) ++trace_.num_datasets;
      break;
    case OpKind::kDatasetFlush:
    case OpKind::kDatasetIo:
      if (op.id >= trace_.num_datasets) {
        return fail("op on unrecorded dataset");
      }
      break;
    case OpKind::kMeterBegin:
      ++meter_begins_;
      break;
    case OpKind::kMeterEnd:
      ++meter_ends_;
      break;
    default:
      break;
  }
  if (op.kind == OpKind::kDatasetIo) {
    op.sel_begin = static_cast<std::uint32_t>(trace_.sels.size());
    op.sel_count = static_cast<std::uint32_t>(selections.size());
    trace_.sels.insert(trace_.sels.end(), selections.begin(),
                       selections.end());
  }
  trace_.ops.push_back(std::move(op));
}

bool Recorder::valid() const {
  return !failed_ && meter_begins_ == 1 && meter_ends_ == 1;
}

OpTrace Recorder::take() { return std::move(trace_); }

}  // namespace tunio::replay
