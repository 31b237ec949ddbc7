//===- tests/test_path_profile_equivalence.cpp - Automaton vs map oracle ---===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Holds the automaton-based profilePaths (core/CorrelatedMachine.cpp) to
/// the map-probing pass it replaced (tests/PathProfileOracle.h): every
/// PathProfile field must be equal, through both trace overloads, on all
/// eight workloads and on seeded random traces and candidate sets.
///
//===----------------------------------------------------------------------===//

#include "PathProfileOracle.h"

#include "core/ProgramAnalysis.h"
#include "support/Rng.h"
#include "trace/ColumnarTrace.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <climits>
#include <string>

using namespace bpcr;

namespace {

/// Compares every field; \returns false (after reporting) on a difference.
bool expectSameProfiles(const std::vector<PathProfile> &Got,
                        const std::vector<PathProfile> &Want,
                        const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Got.size(), Want.size());
  if (Got.size() != Want.size())
    return false;
  for (size_t B = 0; B < Want.size(); ++B) {
    SCOPED_TRACE("branch " + std::to_string(B));
    EXPECT_EQ(Got[B].Unmatched.Taken, Want[B].Unmatched.Taken);
    EXPECT_EQ(Got[B].Unmatched.NotTaken, Want[B].Unmatched.NotTaken);
    EXPECT_EQ(Got[B].PerPath.size(), Want[B].PerPath.size());
    if (Got[B].PerPath.size() != Want[B].PerPath.size())
      continue;
    for (size_t P = 0; P < Want[B].PerPath.size(); ++P) {
      EXPECT_EQ(Got[B].PerPath[P].first, Want[B].PerPath[P].first);
      EXPECT_EQ(Got[B].PerPath[P].second.Taken,
                Want[B].PerPath[P].second.Taken);
      EXPECT_EQ(Got[B].PerPath[P].second.NotTaken,
                Want[B].PerPath[P].second.NotTaken);
    }
  }
  return !::testing::Test::HasFailure();
}

/// What the fuzz generated, so the test can check it reached every case.
struct Coverage {
  uint64_t EmptyCands = 0, LongCands = 0, DupCands = 0, SharedCands = 0;
  uint64_t ForeignSteps = 0, ForeignEvents = 0, MatchedPaths = 0;
  uint64_t NoBranches = 0;
};

/// A branch id: usually in range, sometimes negative, past the end, or an
/// id whose symbol collides with an in-range branch's (INT_MIN + k encodes
/// like branch k).
int32_t randomId(Rng &G, int32_t NumBranches, bool &Foreign) {
  Foreign = true;
  switch (G.below(12)) {
  case 0:
    return -1 - static_cast<int32_t>(G.below(3));
  case 1:
    return NumBranches + static_cast<int32_t>(G.below(3));
  case 2:
    return INT_MIN + static_cast<int32_t>(G.below(4));
  default:
    Foreign = NumBranches == 0;
    return NumBranches ? static_cast<int32_t>(G.below(NumBranches)) : -1;
  }
}

} // namespace

TEST(PathProfileEquivalence, AllWorkloadsBothOverloads) {
  for (uint64_t Cap : {50'000ULL, 1'000'000ULL})
    for (const Workload &W : allWorkloads()) {
      Module Mod;
      Trace T = traceWorkload(W, 1, Mod, Cap);
      ColumnarTrace CT = ColumnarTrace::fromEvents(T);
      ProgramAnalysis PA(Mod);
      for (bool ThroughJumps : {true, false})
        for (unsigned Len = 1; Len <= 4; ++Len) {
          // Every branch takes candidates, so every event is matched.
          std::vector<std::vector<BranchPath>> Cands(PA.numBranches());
          for (uint32_t Id = 0; Id < PA.numBranches(); ++Id)
            Cands[Id] = PA.backwardPaths(static_cast<int32_t>(Id), Len,
                                         ThroughJumps);
          std::string What = std::string(W.Name) + " cap " +
                             std::to_string(Cap) + " len " +
                             std::to_string(Len) + " jumps " +
                             std::to_string(ThroughJumps);
          std::vector<PathProfile> Want = oracle::profilePaths(Cands, T, Len);
          ASSERT_TRUE(expectSameProfiles(profilePaths(Cands, T, Len), Want,
                                         What + " (trace)"));
          ASSERT_TRUE(expectSameProfiles(profilePaths(Cands, CT, Len), Want,
                                         What + " (columnar)"));
        }
    }
}

TEST(PathProfileEquivalence, SeededFuzz) {
  Rng G(15);
  Coverage Cov;
  for (int Case = 0; Case < 1500; ++Case) {
    const int32_t NumBranches = static_cast<int32_t>(G.below(7));
    const unsigned MaxPathLen = 1 + static_cast<unsigned>(G.below(8));
    Cov.NoBranches += NumBranches == 0;

    std::vector<std::vector<BranchPath>> Cands(
        static_cast<size_t>(NumBranches));
    for (int32_t B = 0; B < NumBranches; ++B) {
      size_t N = G.below(6);
      for (size_t I = 0; I < N; ++I) {
        std::vector<BranchPath> &Own = Cands[static_cast<size_t>(B)];
        if (!Own.empty() && G.chance(1, 8)) {
          Own.push_back(Own[G.below(Own.size())]);
          ++Cov.DupCands;
          continue;
        }
        if (B > 0 && G.chance(1, 8)) {
          const std::vector<BranchPath> &Other =
              Cands[G.below(static_cast<uint64_t>(B))];
          if (!Other.empty()) {
            Own.push_back(Other[G.below(Other.size())]);
            ++Cov.SharedCands;
            continue;
          }
        }
        BranchPath P;
        size_t Len = G.below(MaxPathLen + 3);
        Cov.EmptyCands += Len == 0;
        Cov.LongCands += Len > MaxPathLen;
        for (size_t S = 0; S < Len; ++S) {
          bool Foreign = false;
          P.Steps.push_back({randomId(G, NumBranches, Foreign), G.chance(1, 2)});
          Cov.ForeignSteps += Foreign;
        }
        Own.push_back(std::move(P));
      }
    }

    // Splice candidate paths followed by their branch into random noise so
    // that long candidates match too.
    Trace T;
    size_t Chunks = G.below(60);
    for (size_t C = 0; C < Chunks; ++C) {
      int32_t B = NumBranches ? static_cast<int32_t>(G.below(NumBranches)) : 0;
      if (NumBranches && !Cands[static_cast<size_t>(B)].empty() &&
          G.chance(1, 2)) {
        const std::vector<BranchPath> &Own = Cands[static_cast<size_t>(B)];
        for (const PathStep &S : Own[G.below(Own.size())].Steps)
          T.push_back({S.BranchId, S.Taken});
        T.push_back({B, G.chance(1, 2)});
        continue;
      }
      size_t Noise = 1 + G.below(4);
      for (size_t I = 0; I < Noise; ++I) {
        bool Foreign = false;
        T.push_back({randomId(G, NumBranches, Foreign), G.chance(1, 2)});
        Cov.ForeignEvents += Foreign;
      }
    }

    std::string What = "case " + std::to_string(Case) + " branches " +
                       std::to_string(NumBranches) + " len " +
                       std::to_string(MaxPathLen);
    std::vector<PathProfile> Want = oracle::profilePaths(Cands, T, MaxPathLen);
    for (const PathProfile &P : Want)
      Cov.MatchedPaths += P.PerPath.size();
    ASSERT_TRUE(expectSameProfiles(profilePaths(Cands, T, MaxPathLen), Want,
                                   What + " (trace)"));
    ASSERT_TRUE(expectSameProfiles(
        profilePaths(Cands, ColumnarTrace::fromEvents(T), MaxPathLen), Want,
        What + " (columnar)"));
  }
  // The generator reached every case it is meant to cover.
  EXPECT_GT(Cov.EmptyCands, 0u);
  EXPECT_GT(Cov.LongCands, 0u);
  EXPECT_GT(Cov.DupCands, 0u);
  EXPECT_GT(Cov.SharedCands, 0u);
  EXPECT_GT(Cov.ForeignSteps, 0u);
  EXPECT_GT(Cov.ForeignEvents, 0u);
  EXPECT_GT(Cov.NoBranches, 0u);
  EXPECT_GT(Cov.MatchedPaths, 1000u);
}
