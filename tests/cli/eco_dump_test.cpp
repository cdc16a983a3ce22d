// rabid_cli --eco --dump-solution, driven through the real binary: the
// dump must be the replanned solution (not the batch one), equal byte
// for byte to the same ECO replayed in process, and load back against
// the perturbed design audit-clean.  RABID_CLI_PATH is the binary under
// test (set by tests/CMakeLists.txt).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "circuits/generator.hpp"
#include "circuits/specs.hpp"
#include "core/audit.hpp"
#include "core/rabid.hpp"
#include "core/solution_io.hpp"
#include "eco/incremental.hpp"

namespace rabid {
namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(RABID_CLI_PATH) + " " + args + " > /dev/null";
  return std::system(cmd.c_str());
}

TEST(CliEcoDump, DumpsTheReplannedSolutionAndItLoadsBackAuditClean) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("rabid_eco_dump_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::filesystem::path batch = dir / "batch.sol";
  const std::filesystem::path replanned = dir / "eco.sol";
  ASSERT_EQ(run_cli("--circuit apte --threads 1 --dump-solution " +
                    batch.string()),
            0);
  ASSERT_EQ(run_cli("--circuit apte --threads 1 --eco --dump-solution " +
                    replanned.string()),
            0);
  const std::string batch_text = slurp(batch);
  const std::string eco_text = slurp(replanned);
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(eco_text.empty());
  EXPECT_NE(eco_text, batch_text);

  // The CLI's flow in process: the batch plan, then its default ECO
  // (5% of the nets moved, seed 1) through the incremental planner.
  const circuits::CircuitSpec& spec = circuits::spec_by_name("apte");
  const netlist::Design design = circuits::generate_design(spec);
  tile::TileGraph graph = circuits::build_tile_graph(design, spec);
  core::RabidOptions options;
  options.threads = 1;
  core::Rabid rabid(design, graph, options);
  rabid.run_all();
  eco::EcoOptions eopt;
  eopt.tech = options.tech;
  eopt.buffer_library = options.buffer_library;
  eco::IncrementalPlanner planner(design, graph, rabid.nets(), eopt);
  ASSERT_TRUE(planner.replan(
      eco::random_move_perturbation(planner, 0.05, /*seed=*/1)));
  std::stringstream want;
  core::write_solution(want, planner.design(), planner.graph(),
                       planner.nets());
  EXPECT_EQ(eco_text, want.str());

  std::istringstream in(eco_text);
  const auto loaded = core::read_solution_checked(
      in, planner.design(), planner.graph(), nullptr, options.tech);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  core::AuditOptions audit_options;
  audit_options.tech = options.tech;
  audit_options.buffer_library = options.buffer_library;
  const core::AuditReport audit =
      core::SolutionAuditor(planner.design(), planner.graph(), audit_options)
          .audit(loaded.value().nets);
  EXPECT_TRUE(audit.clean()) << audit.summary();
}

}  // namespace
}  // namespace rabid
