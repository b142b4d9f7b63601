#include "config/space.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace tunio::cfg {

std::string layer_name(Layer layer) {
  switch (layer) {
    case Layer::kHdf5:
      return "High_Level_IO_Library";
    case Layer::kMpiIo:
      return "Middleware_Layer";
    case Layer::kLustre:
      return "Parallel_File_System";
  }
  return "Unknown";
}

Configuration::Configuration(const ConfigSpace* space,
                             std::vector<std::size_t> indices)
    : space_(space), indices_(std::move(indices)) {
  TUNIO_CHECK_MSG(space_ != nullptr, "configuration needs a space");
  TUNIO_CHECK_MSG(indices_.size() == space_->num_parameters(),
                  "configuration/space arity mismatch");
  for (std::size_t i = 0; i < indices_.size(); ++i) {
    TUNIO_CHECK_MSG(indices_[i] < space_->parameter(i).domain.size(),
                    "domain index out of range for " +
                        space_->parameter(i).name);
  }
}

std::size_t Configuration::index(std::size_t param) const {
  TUNIO_CHECK_MSG(param < indices_.size(), "parameter out of range");
  return indices_[param];
}

void Configuration::set_index(std::size_t param, std::size_t domain_index) {
  TUNIO_CHECK_MSG(param < indices_.size(), "parameter out of range");
  TUNIO_CHECK_MSG(domain_index < space_->parameter(param).domain.size(),
                  "domain index out of range for " +
                      space_->parameter(param).name);
  indices_[param] = domain_index;
}

std::uint64_t Configuration::value(std::size_t param) const {
  return space_->parameter(param).domain[index(param)];
}

std::uint64_t Configuration::value(const std::string& name) const {
  return value(space_->index_of(name));
}

std::string Configuration::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < size(); ++i) {
    if (i) os << ",";
    os << space_->parameter(i).name << "=" << value(i);
  }
  return os.str();
}

ConfigSpace::ConfigSpace(std::vector<Parameter> parameters)
    : parameters_(std::move(parameters)) {
  TUNIO_CHECK_MSG(!parameters_.empty(), "empty configuration space");
  for (const Parameter& p : parameters_) {
    TUNIO_CHECK_MSG(!p.domain.empty(), "parameter with empty domain: " + p.name);
    TUNIO_CHECK_MSG(p.default_index < p.domain.size(),
                    "default index out of range: " + p.name);
  }
}

const Parameter& ConfigSpace::parameter(std::size_t i) const {
  TUNIO_CHECK_MSG(i < parameters_.size(), "parameter index out of range");
  return parameters_[i];
}

std::size_t ConfigSpace::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    if (parameters_[i].name == name) return i;
  }
  throw InvalidArgument("unknown parameter: " + name);
}

bool ConfigSpace::has(const std::string& name) const {
  for (const Parameter& p : parameters_) {
    if (p.name == name) return true;
  }
  return false;
}

double ConfigSpace::permutations() const {
  double product = 1.0;
  for (const Parameter& p : parameters_) {
    product *= static_cast<double>(p.domain.size());
  }
  return product;
}

double ConfigSpace::log10_permutations() const {
  double sum = 0.0;
  for (const Parameter& p : parameters_) {
    sum += std::log10(static_cast<double>(p.domain.size()));
  }
  return sum;
}

Configuration ConfigSpace::default_configuration() const {
  std::vector<std::size_t> indices;
  indices.reserve(parameters_.size());
  for (const Parameter& p : parameters_) indices.push_back(p.default_index);
  return Configuration(this, std::move(indices));
}

namespace {

ConfigSpace make_tunio12() {
  // Values chosen so the product of domain sizes is
  // 8*9*8*8*3*8*8*10*8*8*2*2 = 2,264,924,160 > 2.18e9, matching §IV.
  std::vector<Parameter> params;

  // --- Lustre ---
  params.push_back({"striping_factor",
                    Layer::kLustre,
                    {1, 2, 4, 8, 16, 32, 48, 64},
                    0,
                    "number of OSTs a file is striped across"});
  params.push_back({"striping_unit",
                    Layer::kLustre,
                    {64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB,
                     2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB},
                    4,
                    "stripe size in bytes"});

  // --- MPI-IO ---
  params.push_back({"cb_nodes",
                    Layer::kMpiIo,
                    {1, 2, 4, 8, 16, 32, 64, 128},
                    0,
                    "number of collective-buffering aggregators"});
  params.push_back({"cb_buffer_size",
                    Layer::kMpiIo,
                    {1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB, 32 * MiB,
                     64 * MiB, 128 * MiB},
                    4,
                    "per-aggregator staging buffer"});
  params.push_back({"romio_collective",
                    Layer::kMpiIo,
                    {0, 1, 2},  // 0=auto 1=enable 2=disable
                    0,
                    "collective buffering mode (auto/enable/disable)"});

  // --- HDF5 ---
  params.push_back({"sieve_buf_size",
                    Layer::kHdf5,
                    {64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB,
                     2 * MiB, 4 * MiB, 8 * MiB},
                    0,
                    "raw-data sieve buffer size"});
  params.push_back({"alignment",
                    Layer::kHdf5,
                    {1, 64 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB,
                     4 * MiB, 16 * MiB},
                    0,
                    "file-space allocation alignment"});
  params.push_back({"chunk_cache",
                    Layer::kHdf5,
                    {1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB, 32 * MiB,
                     64 * MiB, 128 * MiB, 256 * MiB, 512 * MiB},
                    0,
                    "chunk cache capacity (rdcc_nbytes)"});
  params.push_back({"meta_block_size",
                    Layer::kHdf5,
                    {2 * KiB, 8 * KiB, 32 * KiB, 64 * KiB, 256 * KiB, 1 * MiB,
                     4 * MiB, 16 * MiB},
                    0,
                    "metadata aggregation block size"});
  params.push_back({"mdc_config",
                    Layer::kHdf5,
                    {2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB, 32 * MiB, 48 * MiB,
                     64 * MiB, 128 * MiB},
                    0,
                    "metadata cache capacity"});
  params.push_back({"coll_metadata_ops",
                    Layer::kHdf5,
                    {0, 1},
                    0,
                    "collective metadata reads"});
  params.push_back({"coll_metadata_write",
                    Layer::kHdf5,
                    {0, 1},
                    0,
                    "collective metadata writes"});

  return ConfigSpace(std::move(params));
}

}  // namespace

const ConfigSpace& ConfigSpace::tunio12() {
  static const ConfigSpace space = make_tunio12();
  return space;
}

}  // namespace tunio::cfg
