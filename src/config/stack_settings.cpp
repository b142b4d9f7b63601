#include "config/stack_settings.hpp"

#include "common/error.hpp"

namespace tunio::cfg {

StackSettings resolve(const Configuration& config) {
  StackSettings s;

  s.lustre.stripe_count =
      static_cast<unsigned>(config.value("striping_factor"));
  s.lustre.stripe_size = config.value("striping_unit");

  s.mpiio.cb_nodes = static_cast<unsigned>(config.value("cb_nodes"));
  s.mpiio.cb_buffer_size = config.value("cb_buffer_size");
  switch (config.value("romio_collective")) {
    case 0:
      s.mpiio.collective = mpiio::CollectiveMode::kAuto;
      break;
    case 1:
      s.mpiio.collective = mpiio::CollectiveMode::kEnable;
      break;
    case 2:
      s.mpiio.collective = mpiio::CollectiveMode::kDisable;
      break;
    default:
      throw InvalidArgument("bad romio_collective value");
  }

  s.fapl.sieve_buf_size = config.value("sieve_buf_size");
  s.fapl.alignment = config.value("alignment");
  s.fapl.alignment_threshold = s.fapl.alignment > 1 ? s.fapl.alignment / 2 : 0;
  s.fapl.meta_block_size = config.value("meta_block_size");
  s.fapl.mdc_nbytes = config.value("mdc_config");
  s.fapl.coll_metadata_ops = config.value("coll_metadata_ops") != 0;
  s.fapl.coll_metadata_write = config.value("coll_metadata_write") != 0;

  s.chunk_cache.rdcc_nbytes = config.value("chunk_cache");
  return s;
}

StackSettings default_settings() {
  return resolve(ConfigSpace::tunio12().default_configuration());
}

}  // namespace tunio::cfg
