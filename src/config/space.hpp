// The tuning configuration space.
//
// §IV of the paper tunes 12 parameters across HDF5, MPI-IO and Lustre
// ("a search space of over 2.18 billion permutations"). `ConfigSpace`
// models that space: each `Parameter` has a named discrete domain (the
// values a tuner may pick), a default, and the I/O-stack layer it belongs
// to. A `Configuration` is an assignment of one domain index per
// parameter — the genome the genetic tuner evolves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace tunio::cfg {

/// I/O-stack layer a parameter configures.
enum class Layer { kHdf5, kMpiIo, kLustre };

std::string layer_name(Layer layer);

struct Parameter {
  std::string name;
  Layer layer;
  std::vector<std::uint64_t> domain;  ///< raw values (enums encoded as ints)
  std::size_t default_index = 0;
  std::string description;
};

class ConfigSpace;

/// One point in the configuration space: a domain index per parameter.
class Configuration {
 public:
  Configuration(const ConfigSpace* space, std::vector<std::size_t> indices);

  const ConfigSpace& space() const { return *space_; }
  std::size_t size() const { return indices_.size(); }

  std::size_t index(std::size_t param) const;
  void set_index(std::size_t param, std::size_t domain_index);

  /// Raw value of parameter `param` under this configuration.
  std::uint64_t value(std::size_t param) const;
  std::uint64_t value(const std::string& name) const;

  const std::vector<std::size_t>& indices() const { return indices_; }

  bool operator==(const Configuration& other) const {
    return indices_ == other.indices_;
  }

  /// Compact "name=value,..." rendering for logs.
  std::string to_string() const;

 private:
  const ConfigSpace* space_;
  std::vector<std::size_t> indices_;
};

class ConfigSpace {
 public:
  explicit ConfigSpace(std::vector<Parameter> parameters);

  /// The canonical 12-parameter space of the paper's evaluation
  /// (HDF5 + MPI-IO + Lustre; > 2.18e9 permutations). One static
  /// instance, so configurations drawn from it never dangle.
  static const ConfigSpace& tunio12();

  std::size_t num_parameters() const { return parameters_.size(); }
  const Parameter& parameter(std::size_t i) const;
  const std::vector<Parameter>& parameters() const { return parameters_; }

  /// Index of a parameter by name; throws if unknown.
  std::size_t index_of(const std::string& name) const;
  bool has(const std::string& name) const;

  /// Total number of value permutations (product of domain sizes).
  double permutations() const;
  double log10_permutations() const;

  Configuration default_configuration() const;

 private:
  std::vector<Parameter> parameters_;
};

}  // namespace tunio::cfg
