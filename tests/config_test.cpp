// Tests for the configuration space, XML serialization, stack settings,
// and the Figure-1 library inventories.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/inventory.hpp"
#include "config/space.hpp"
#include "config/stack_settings.hpp"
#include "config/xml.hpp"

namespace tunio::cfg {
namespace {

TEST(ConfigSpace, Tunio12HasTwelveParameters) {
  const ConfigSpace space = ConfigSpace::tunio12();
  EXPECT_EQ(space.num_parameters(), 12u);
  // The paper's §IV: "a search space of over 2.18 billion permutations".
  EXPECT_GT(space.permutations(), 2.18e9);
  EXPECT_LT(space.permutations(), 1e10);  // same order of magnitude
  EXPECT_NEAR(space.log10_permutations(), std::log10(space.permutations()),
              1e-9);
}

/// Varied configurations of `space`, in the shape tests commonly build.
std::vector<Configuration> varied_configs(const ConfigSpace& space,
                                          int count) {
  std::vector<Configuration> configs;
  Rng rng(0x5EED);
  for (int i = 0; i < count; ++i) {
    Configuration config = space.default_configuration();
    for (std::size_t p = 0; p < space.num_parameters(); ++p) {
      config.set_index(p, rng.index(space.parameter(p).domain.size()));
    }
    configs.push_back(config);
  }
  return configs;
}

TEST(ConfigSpace, Tunio12ConfigurationsOutliveTheCallExpression) {
  // Configurations point at their space; built straight from the
  // canonical space, they must stay readable after the full expression.
  const std::vector<Configuration> configs =
      varied_configs(ConfigSpace::tunio12(), 4);
  const std::set<std::uint64_t> stripes{1, 2, 4, 8, 16, 32, 48, 64};
  for (const Configuration& config : configs) {
    EXPECT_EQ(&config.space(), &ConfigSpace::tunio12());
    EXPECT_EQ(stripes.count(config.value("striping_factor")), 1u);
  }
}

TEST(ConfigSpace, AllPaperParametersPresent) {
  const ConfigSpace space = ConfigSpace::tunio12();
  for (const char* name :
       {"sieve_buf_size", "chunk_cache", "alignment", "meta_block_size",
        "mdc_config", "coll_metadata_ops", "coll_metadata_write",
        "striping_factor", "striping_unit", "cb_nodes", "cb_buffer_size",
        "romio_collective"}) {
    EXPECT_TRUE(space.has(name)) << name;
  }
  EXPECT_FALSE(space.has("bogus"));
  EXPECT_THROW(space.index_of("bogus"), Error);
}

TEST(ConfigSpace, LayerAssignment) {
  const ConfigSpace space = ConfigSpace::tunio12();
  EXPECT_EQ(space.parameter(space.index_of("striping_factor")).layer,
            Layer::kLustre);
  EXPECT_EQ(space.parameter(space.index_of("cb_nodes")).layer, Layer::kMpiIo);
  EXPECT_EQ(space.parameter(space.index_of("chunk_cache")).layer,
            Layer::kHdf5);
  EXPECT_EQ(layer_name(Layer::kHdf5), "High_Level_IO_Library");
  EXPECT_EQ(layer_name(Layer::kMpiIo), "Middleware_Layer");
  EXPECT_EQ(layer_name(Layer::kLustre), "Parallel_File_System");
}

TEST(Configuration, DefaultsAndMutation) {
  const ConfigSpace space = ConfigSpace::tunio12();
  Configuration config = space.default_configuration();
  EXPECT_EQ(config.size(), 12u);
  const std::size_t sf = space.index_of("striping_factor");
  EXPECT_EQ(config.value(sf), 1u);  // Lustre default: 1 stripe
  config.set_index(sf, 3);
  EXPECT_EQ(config.value(sf), 8u);
  EXPECT_EQ(config.value("striping_factor"), 8u);
  EXPECT_THROW(config.set_index(sf, 99), Error);
  EXPECT_THROW(config.set_index(99, 0), Error);
}

TEST(Configuration, EqualityAndToString) {
  const ConfigSpace space = ConfigSpace::tunio12();
  Configuration a = space.default_configuration();
  Configuration b = space.default_configuration();
  EXPECT_TRUE(a == b);
  b.set_index(0, 1);
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.to_string().find("striping_factor="), std::string::npos);
}

TEST(Xml, RoundTripDefaults) {
  const ConfigSpace space = ConfigSpace::tunio12();
  const Configuration config = space.default_configuration();
  const std::string xml = to_xml(config);
  EXPECT_NE(xml.find("<Parameters>"), std::string::npos);
  EXPECT_NE(xml.find("<High_Level_IO_Library>"), std::string::npos);
  EXPECT_NE(xml.find("<Parallel_File_System>"), std::string::npos);
  const Configuration parsed = from_xml(space, xml);
  EXPECT_TRUE(parsed == config);
}

TEST(Xml, PartialDocumentKeepsDefaults) {
  const ConfigSpace space = ConfigSpace::tunio12();
  const std::string xml = R"(
    <Parameters>
      <Parallel_File_System>
        <striping_factor>16</striping_factor>
      </Parallel_File_System>
    </Parameters>)";
  const Configuration parsed = from_xml(space, xml);
  EXPECT_EQ(parsed.value("striping_factor"), 16u);
  // Everything else stays at its default.
  const Configuration defaults = space.default_configuration();
  EXPECT_EQ(parsed.value("cb_nodes"), defaults.value("cb_nodes"));
}

TEST(Xml, RejectsMalformedInput) {
  const ConfigSpace space = ConfigSpace::tunio12();
  EXPECT_THROW(from_xml(space, "<Parameters><Unclosed>"), Error);
  EXPECT_THROW(
      from_xml(space,
               "<Parameters><Middleware_Layer><nope>1</nope>"
               "</Middleware_Layer></Parameters>"),
      Error);
  // Value outside the parameter's domain.
  EXPECT_THROW(
      from_xml(space,
               "<Parameters><Parallel_File_System>"
               "<striping_factor>7</striping_factor>"
               "</Parallel_File_System></Parameters>"),
      Error);
}

TEST(Xml, RejectsValuesThatAreNotWholeUnsignedNumbers) {
  const ConfigSpace space = ConfigSpace::tunio12();
  auto document = [](const std::string& value) {
    return "<Parameters><Parallel_File_System><striping_factor>" + value +
           "</striping_factor></Parallel_File_System></Parameters>";
  };
  EXPECT_EQ(from_xml(space, document(" 8 ")).value("striping_factor"), 8u);
  for (const std::string bad :
       {"abc", "99999999999999999999999", "1abc", "-1"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(from_xml(space, document(bad)), Error);
  }
}

/// Property: XML round-trip is the identity for random configurations.
class XmlRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlRoundTrip, Identity) {
  const ConfigSpace space = ConfigSpace::tunio12();
  Rng rng(GetParam());
  for (int i = 0; i < 25; ++i) {
    Configuration config = space.default_configuration();
    for (std::size_t p = 0; p < space.num_parameters(); ++p) {
      config.set_index(p, rng.index(space.parameter(p).domain.size()));
    }
    const Configuration parsed = from_xml(space, to_xml(config));
    EXPECT_TRUE(parsed == config);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTrip, ::testing::Values(1, 2, 3, 4));

TEST(StackSettings, ResolveMapsEveryLayer) {
  const ConfigSpace space = ConfigSpace::tunio12();
  Configuration config = space.default_configuration();
  config.set_index(space.index_of("striping_factor"), 4);   // 16
  config.set_index(space.index_of("striping_unit"), 6);     // 4 MiB
  config.set_index(space.index_of("cb_nodes"), 3);          // 8
  config.set_index(space.index_of("romio_collective"), 1);  // enable
  config.set_index(space.index_of("alignment"), 4);         // 1 MiB
  config.set_index(space.index_of("coll_metadata_ops"), 1);
  const StackSettings s = resolve(config);
  EXPECT_EQ(*s.lustre.stripe_count, 16u);
  EXPECT_EQ(*s.lustre.stripe_size, 4 * MiB);
  EXPECT_EQ(s.mpiio.cb_nodes, 8u);
  EXPECT_EQ(s.mpiio.collective, mpiio::CollectiveMode::kEnable);
  EXPECT_EQ(s.fapl.alignment, 1 * MiB);
  EXPECT_TRUE(s.fapl.coll_metadata_ops);
  EXPECT_FALSE(s.fapl.coll_metadata_write);
}

TEST(StackSettings, DefaultSettingsMatchDefaults) {
  const StackSettings s = default_settings();
  EXPECT_EQ(*s.lustre.stripe_count, 1u);
  EXPECT_EQ(s.mpiio.collective, mpiio::CollectiveMode::kAuto);
  EXPECT_EQ(s.chunk_cache.rdcc_nbytes, 1 * MiB);
}

TEST(Inventory, Figure1Libraries) {
  const auto libs = figure1_inventories();
  ASSERT_GE(libs.size(), 6u);
  std::set<std::string> names;
  for (const auto& lib : libs) names.insert(lib.name);
  EXPECT_TRUE(names.count("HDF5"));
  EXPECT_TRUE(names.count("PNetCDF"));
  EXPECT_TRUE(names.count("ADIOS"));
  EXPECT_TRUE(names.count("Hermes"));
}

TEST(Inventory, Hdf5PlusMpiMatchesPaperOrder) {
  const auto libs = figure1_inventories();
  std::vector<LibraryInventory> stack;
  for (const auto& lib : libs) {
    if (lib.name == "HDF5" || lib.name.rfind("MPI", 0) == 0) {
      stack.push_back(lib);
    }
  }
  ASSERT_EQ(stack.size(), 2u);
  const double perms = stack_permutations(stack);
  // Paper: "a stack that includes HDF5 and MPI would have 3.81e21
  // parameter value permutations" — we land in the same decade.
  EXPECT_GT(perms, 1e21);
  EXPECT_LT(perms, 1e22);
}

TEST(Inventory, PermutationMathIsConsistent) {
  LibraryInventory lib{"X", 3, 1, 2};
  EXPECT_EQ(lib.total_params(), 6u);
  // 2^3 * 3 * 5^2 = 600.
  EXPECT_NEAR(lib.permutations(), 600.0, 1e-6);
}

}  // namespace
}  // namespace tunio::cfg
