#include "minic/builtins.hpp"

#include <array>

namespace tunio::minic {

namespace {

using B = Builtin;
using O = OpClass;
using R = BuiltinResult;

// h5fcreate(path) h5fopen(path) h5fclose(f) h5set_chunking(elems)
// h5dcreate(f, name, elem_size, total) h5dopen(f, name) h5dclose(d)
// h5dwrite_all(d, per_rank) h5dread_all(d, per_rank)
// h5dwrite_strided(d, block, elems) h5dread_strided(d, block, elems)
// fprintf_log(path, bytes) compute(seconds) mpi_size() mpi_barrier()
// tuned_stripe_count() tuned_stripe_size_kib() tuned_cb_nodes()
// min(a, b) max(a, b) reduced_iters(n, divisor)
constexpr std::array<BuiltinInfo, 21> kBuiltins = {{
    {B::kH5fcreate, "h5fcreate", 1, O::kFileOpen, R::kHandle},
    {B::kH5fopen, "h5fopen", 1, O::kFileOpen, R::kHandle},
    {B::kH5fclose, "h5fclose", 1, O::kMetaOther, R::kZero},
    {B::kH5setChunking, "h5set_chunking", 1, O::kMetaOther, R::kZero},
    {B::kH5dcreate, "h5dcreate", 4, O::kDatasetCreate, R::kHandle},
    {B::kH5dopen, "h5dopen", 2, O::kMetaOther, R::kHandle},
    {B::kH5dclose, "h5dclose", 1, O::kMetaOther, R::kZero},
    {B::kH5dwriteAll, "h5dwrite_all", 2, O::kBulkWrite, R::kZero},
    {B::kH5dreadAll, "h5dread_all", 2, O::kBulkRead, R::kZero},
    {B::kH5dwriteStrided, "h5dwrite_strided", 3, O::kStridedWrite, R::kZero},
    {B::kH5dreadStrided, "h5dread_strided", 3, O::kStridedRead, R::kZero},
    {B::kFprintfLog, "fprintf_log", 2, O::kLogWrite, R::kZero},
    {B::kCompute, "compute", 1, O::kCompute, R::kZero},
    {B::kMpiSize, "mpi_size", 0, O::kNone, R::kValue},
    {B::kMpiBarrier, "mpi_barrier", 0, O::kBarrier, R::kZero},
    {B::kTunedStripeCount, "tuned_stripe_count", 0, O::kNone, R::kValue},
    {B::kTunedStripeSizeKib, "tuned_stripe_size_kib", 0, O::kNone, R::kValue},
    {B::kTunedCbNodes, "tuned_cb_nodes", 0, O::kNone, R::kValue},
    {B::kMin, "min", 2, O::kNone, R::kValue},
    {B::kMax, "max", 2, O::kNone, R::kValue},
    {B::kReducedIters, "reduced_iters", 2, O::kNone, R::kValue},
}};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < kBuiltins.size(); ++i) {
    if (static_cast<std::size_t>(kBuiltins[i].id) != i) return false;
  }
  return kBuiltins.back().id == B::kReducedIters;
}
static_assert(rows_in_enum_order(), "one row per Builtin, in enum order");

}  // namespace

std::span<const BuiltinInfo> builtin_table() { return kBuiltins; }

const BuiltinInfo& builtin_info(Builtin builtin) {
  return kBuiltins[static_cast<std::size_t>(builtin)];
}

std::optional<Builtin> find_builtin(std::string_view name) {
  for (const BuiltinInfo& row : kBuiltins) {
    if (row.name == name) return row.id;
  }
  return std::nullopt;
}

std::optional<Builtin> resolve_builtin(const Program& program,
                                       const std::string& name) {
  const std::optional<Builtin> builtin = find_builtin(name);
  if (builtin && program.find(name) != nullptr) return std::nullopt;
  return builtin;
}

}  // namespace tunio::minic
