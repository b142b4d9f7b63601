#include "replay/hooks.hpp"

namespace tunio::replay {

RecordScope::RecordScope(Recorder& recorder)
    : prev_(detail::record_state().recorder) {
  detail::record_state().recorder = &recorder;
}

RecordScope::~RecordScope() { detail::record_state().recorder = prev_; }

SuppressScope::SuppressScope() { ++detail::record_state().suppress; }

SuppressScope::~SuppressScope() { --detail::record_state().suppress; }

Op& Recorder::push(OpKind kind) {
  trace_.ops.emplace_back();
  trace_.ops.back().kind = kind;
  return trace_.ops.back();
}

void Recorder::fail(const std::string& message) {
  if (!failed_) {
    failed_ = true;
    error_ = message;
  }
}

std::uint32_t Recorder::lookup(
    const std::unordered_map<const void*, std::uint32_t>& ids,
    const void* object, const char* what) {
  auto it = ids.find(object);
  if (it == ids.end()) {
    fail(std::string("op on unrecorded ") + what);
    return 0;
  }
  return it->second;
}

void Recorder::on_file_ctor(const void* file, const std::string& path,
                            bool memory_tier) {
  if (failed_) return;
  file_ids_.insert_or_assign(file, trace_.num_files);
  Op& op = push(OpKind::kFileCtor);
  op.id = trace_.num_files++;
  op.flag2 = memory_tier;
  op.text = path;
}

void Recorder::on_file_flush(const void* file) {
  if (failed_) return;
  push(OpKind::kFileFlush).id = lookup(file_ids_, file, "file");
}

void Recorder::on_file_close(const void* file) {
  if (failed_) return;
  push(OpKind::kFileClose).id = lookup(file_ids_, file, "file");
}

void Recorder::on_dataset_create(const void* file, const void* dataset,
                                 const std::string& name, Bytes elem_size,
                                 std::uint64_t num_elements,
                                 std::uint64_t chunk_elements) {
  if (failed_) return;
  dataset_ids_.insert_or_assign(dataset, trace_.num_datasets++);
  Op& op = push(OpKind::kDatasetCreate);
  op.id = lookup(file_ids_, file, "file");
  op.text = name;
  op.a = elem_size;
  op.b = num_elements;
  op.c = chunk_elements;
}

void Recorder::on_dataset_flush(const void* dataset) {
  if (failed_) return;
  push(OpKind::kDatasetFlush).id = lookup(dataset_ids_, dataset, "dataset");
}

void Recorder::on_dataset_io(const void* dataset, bool is_write,
                             bool collective, const Sel* sels,
                             std::size_t count) {
  if (failed_) return;
  const std::uint32_t id = lookup(dataset_ids_, dataset, "dataset");
  Op& op = push(OpKind::kDatasetIo);
  op.id = id;
  op.flag = is_write;
  op.flag2 = collective;
  op.sel_begin = static_cast<std::uint32_t>(trace_.sels.size());
  op.sel_count = static_cast<std::uint32_t>(count);
  trace_.sels.insert(trace_.sels.end(), sels, sels + count);
}

void Recorder::on_log_write(const std::string& path, Bytes bytes,
                            bool memory_tier) {
  if (failed_) return;
  Op& op = push(OpKind::kLogWrite);
  op.text = path;
  op.a = bytes;
  op.flag2 = memory_tier;
}

void Recorder::on_compute(double seconds, unsigned salt) {
  if (failed_) return;
  Op& op = push(OpKind::kCompute);
  op.seconds = seconds;
  op.salt = salt;
}

void Recorder::on_barrier() {
  if (failed_) return;
  push(OpKind::kBarrier);
}

void Recorder::on_mpi_reset() {
  if (failed_) return;
  push(OpKind::kMpiReset);
}

void Recorder::on_fs_quiesce() {
  if (failed_) return;
  push(OpKind::kFsQuiesce);
}

void Recorder::on_meter_begin() {
  if (failed_) return;
  ++meter_begins_;
  push(OpKind::kMeterBegin);
}

void Recorder::on_phase(int phase) {
  if (failed_) return;
  push(OpKind::kPhase).salt = static_cast<std::uint32_t>(phase);
}

void Recorder::on_meter_end() {
  if (failed_) return;
  ++meter_ends_;
  push(OpKind::kMeterEnd);
}

bool Recorder::valid() const {
  return !failed_ && meter_begins_ == 1 && meter_ends_ == 1;
}

OpTrace Recorder::take() { return std::move(trace_); }

}  // namespace tunio::replay
