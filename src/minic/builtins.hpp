// The mini-C builtins: one table row per builtin (builtins.cpp) gives its
// name, arity, op class and result. A call resolves by one rule in the
// interpreter, the abstract interpreter, the cost model and the linter:
// a function the program defines comes first, then the table; any other
// name is unknown. They `switch` over `Builtin` without a `default:`, so
// -Wswitch flags a builtin some consumer does not handle.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "minic/ast.hpp"

namespace tunio::minic {

enum class Builtin {
  kH5fcreate, kH5fopen, kH5fclose, kH5setChunking, kH5dcreate, kH5dopen,
  kH5dclose, kH5dwriteAll, kH5dreadAll, kH5dwriteStrided, kH5dreadStrided,
  kFprintfLog, kCompute, kMpiSize, kMpiBarrier, kTunedStripeCount,
  kTunedStripeSizeKib, kTunedCbNodes, kMin, kMax, kReducedIters,
};

/// The application-level op a builtin issues, as the static cost model
/// counts it; kNone for builtins that only compute a value.
enum class OpClass {
  kNone, kBulkWrite, kBulkRead, kStridedWrite, kStridedRead, kLogWrite,
  kFileOpen, kDatasetCreate, kMetaOther, kCompute, kBarrier,
};

/// What a call returns: always int 0, a file or dataset handle, or a
/// computed int.
enum class BuiltinResult { kZero, kHandle, kValue };

struct BuiltinInfo {
  Builtin id;
  std::string_view name;
  std::size_t arity;
  OpClass op;
  BuiltinResult result;
};

/// Names beginning with this read resolved stack settings.
inline constexpr std::string_view kTunedPrefix = "tuned_";

/// Every row, in `Builtin` order.
std::span<const BuiltinInfo> builtin_table();
const BuiltinInfo& builtin_info(Builtin builtin);
/// The row named `name`, whatever functions a program defines.
std::optional<Builtin> find_builtin(std::string_view name);
/// The builtin a call to `name` in `program` runs: nullopt when the
/// program defines `name` or no row has it.
std::optional<Builtin> resolve_builtin(const Program& program,
                                       const std::string& name);

}  // namespace tunio::minic
