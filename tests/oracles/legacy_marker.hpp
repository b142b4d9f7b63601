// Test-only oracle: the paper's name-based marking loop for Application
// I/O Discovery (§III-B, Figure 4). Discovery marks with
// analysis::slice_io; this loop is the reference whose kept set bounds
// the slicer's.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "minic/ast.hpp"

namespace tunio::discovery {

/// Returns the ids of all statements that must be kept to preserve the
/// program's I/O. It keeps every statement that defines a variable whose
/// name is a dependent anywhere in the function, a coarser
/// over-approximation than discovery's marking (analysis::slice_io,
/// which keeps a definition only when it can *reach* a kept use); the
/// tests check that the slicer's kept set is a subset of this one.
std::set<int> mark_kept(const minic::Program& program,
                        const std::vector<std::string>& io_prefixes);

}  // namespace tunio::discovery
