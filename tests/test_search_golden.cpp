//===- tests/test_search_golden.cpp - Golden joint machines and decisions -===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// Pins the machine search's observable output on the full workload suite:
//  - every joint loop machine the pipeline's planner would build, for all
//    eight workloads x MaxStates 3..8 x {50k, 1M} branch events;
//  - the pipeline's whole replication decision log at size budgets below,
//    at and above the benchmark default.
// Both files were recorded with the full-rescan search engine; the
// incremental engine and the planner's shortcuts must reproduce them byte
// for byte. Set BPCR_GOLDEN_RECORD=1 to rewrite the files instead of
// comparing (only after an intended change of the search results).
//
//===----------------------------------------------------------------------===//

#include "core/JointMachine.h"
#include "core/LoopAwareProfiles.h"
#include "core/Pipeline.h"
#include "core/ProgramAnalysis.h"
#include "core/StrategySelection.h"
#include "obs/Metrics.h"
#include "trace/ColumnarTrace.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

using namespace bpcr;

namespace {

const std::string DataDir = BPCR_TEST_DATA_DIR;

/// Compares \p Actual with the golden file, or rewrites it in record mode.
void checkGolden(const std::string &File, const std::string &Actual) {
  std::string Path = DataDir + "/" + File;
  const char *Record = std::getenv("BPCR_GOLDEN_RECORD");
  if (Record && std::string(Record) == "1") {
    std::ofstream Out(Path);
    Out << Actual;
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path;
  std::stringstream Expected;
  Expected << In.rdbuf();
  // Line-wise comparison keeps a mismatch readable.
  std::istringstream E(Expected.str()), A(Actual);
  std::string EL, AL;
  for (size_t Line = 1;; ++Line) {
    bool HaveE = static_cast<bool>(std::getline(E, EL));
    bool HaveA = static_cast<bool>(std::getline(A, AL));
    if (!HaveE && !HaveA)
      break;
    ASSERT_EQ(HaveE, HaveA) << File << ": line count differs at " << Line;
    ASSERT_EQ(EL, AL) << File << ":" << Line;
  }
}

/// The planner's candidate groups: loop-machine strategies sharing one
/// innermost loop, at least two per group (core/Pipeline.cpp).
std::vector<std::vector<int32_t>>
jointGroups(const ProgramAnalysis &PA,
            const std::vector<BranchStrategy> &Strategies) {
  std::map<std::pair<uint32_t, int32_t>, std::vector<int32_t>> Groups;
  for (const BranchStrategy &S : Strategies) {
    if (S.Kind != StrategyKind::IntraLoop && S.Kind != StrategyKind::LoopExit)
      continue;
    Groups[{PA.ref(S.BranchId).FuncIdx, PA.classOf(S.BranchId).LoopIdx}]
        .push_back(S.BranchId);
  }
  std::vector<std::vector<int32_t>> Out;
  for (auto &[Key, Members] : Groups)
    if (Members.size() >= 2)
      Out.push_back(Members);
  return Out;
}

} // namespace

TEST(SearchGolden, JointMachinesMatchRecordedSuite) {
  std::ostringstream Out;
  for (uint64_t Events : {50'000ull, 1'000'000ull})
    for (const Workload &W : allWorkloads()) {
      Module M;
      ColumnarTrace CT = traceWorkloadColumnar(W, /*Seed=*/1, M, Events);
      ProgramAnalysis PA(M);
      ProfileSet Profiles = buildLoopAwareProfiles(PA, CT, /*MaxBits=*/9);
      StrategyOptions SO;
      SO.MaxStates = 6;
      SO.NodeBudget = 50'000;
      SO.Jobs = 1;
      std::vector<BranchStrategy> Strategies =
          selectStrategies(PA, Profiles, CT, SO);
      for (const std::vector<int32_t> &Members : jointGroups(PA, Strategies)) {
        JointProfile JP = profileJointLoop(PA, Members, CT, /*MaxLen=*/4);
        Out << W.Name << " events=" << Events << " members=";
        for (size_t I = 0; I < Members.size(); ++I)
          Out << (I ? "," : "") << Members[I];
        Out << " patterns=" << JP.PerPattern.size()
            << " executions=" << JP.Executions << "\n";
        if (JP.Executions == 0)
          continue;
        for (unsigned States = 8; States >= 3; --States) {
          JointOptions JO;
          JO.MaxStates = States;
          JO.MaxLen = 4;
          JO.NodeBudget = 50'000;
          JointLoopMachine JM = buildJointLoopMachine(Members, JP, JO);
          Out << "  max_states=" << States << " correct=" << JM.Correct
              << " total=" << JM.Total << " " << JM.describe() << "\n";
        }
      }
    }
  checkGolden("joint_machines.golden", Out.str());
}

TEST(SearchGolden, PipelineDecisionsMatchRecordedSuite) {
  std::ostringstream Out;
  for (const Workload &W : allWorkloads()) {
    Module M;
    ColumnarTrace CT = traceWorkloadColumnar(W, /*Seed=*/1, M, 50'000);
    for (double Budget : {1.1, 1.35, 2.0, 4.0}) {
      PipelineOptions Opts;
      Opts.Strategy.MaxStates = 6;
      Opts.Strategy.NodeBudget = 50'000;
      Opts.Strategy.Jobs = 1;
      Opts.MaxSizeFactor = Budget;
      PipelineResult R = replicateModule(M, CT, Opts);
      ASSERT_TRUE(R.Soundness.empty()) << W.Name;
      Out << W.Name << " budget=" << Budget << " instructions="
          << R.OrigInstructions << "->" << R.NewInstructions
          << " loop=" << R.LoopReplications
          << " joint=" << R.JointReplications
          << " correlated=" << R.CorrelatedReplications
          << " skipped_budget=" << R.SkippedBudget
          << " skipped_structure=" << R.SkippedStructure << "\n";
      for (const BranchDecision &D : R.Decisions.all())
        Out << "  " << D.BranchId << " " << D.Strategy << " "
            << decisionActionName(D.Action) << " gain=" << D.EstimatedGain
            << " cost=" << D.SizeCost << " " << D.Reason << "\n";
    }
  }
  checkGolden("pipeline_decisions.golden", Out.str());
}

TEST(SearchGolden, HopelessJointGroupsSkipTheSearch) {
  // Ghostview's joint group cannot afford a single loop copy at budget 1.35,
  // so the planner skips its profiling and searches. The recorded decision
  // log above was produced with those searches run, so equal decisions
  // show the skip changes nothing.
  const Workload *Ghostview = nullptr;
  for (const Workload &W : allWorkloads())
    if (std::string(W.Name) == "ghostview")
      Ghostview = &W;
  ASSERT_NE(Ghostview, nullptr);
  Module M;
  ColumnarTrace CT = traceWorkloadColumnar(*Ghostview, /*Seed=*/1, M, 50'000);
  Registry &Obs = Registry::global();
  Obs.setEnabled(true);
  auto Builds = [&](double Budget) {
    PipelineOptions Opts;
    Opts.Strategy.MaxStates = 6;
    Opts.Strategy.NodeBudget = 50'000;
    Opts.Strategy.Jobs = 1;
    Opts.MaxSizeFactor = Budget;
    uint64_t Before = Obs.counter("search.joint.builds").value();
    replicateModule(M, CT, Opts);
    return Obs.counter("search.joint.builds").value() - Before;
  };
  EXPECT_EQ(Builds(1.35), 0u);
  EXPECT_GT(Builds(2.0), 0u);
  Obs.setEnabled(false);
}
