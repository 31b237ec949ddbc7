//===- tests/test_search_equivalence.cpp - Incremental vs full-rescan -----===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
// The incremental suffix-state engine must make exactly the decisions of
// the full-rescan searches it replaced (tests/SearchOracle.h): same states,
// same score, same budget exhaustion and the same number of DFS nodes, over
// seeded random tables with 1-4 count channels, forced states, MinLen 1/2,
// substring closure on and off, and node budgets that do and do not run
// out.
//
//===----------------------------------------------------------------------===//

#include "SearchOracle.h"

#include "core/JointMachine.h"
#include "core/ProgramAnalysis.h"
#include "core/SuffixSelect.h"
#include "support/Rng.h"
#include "trace/ColumnarTrace.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace bpcr;

namespace {

/// Longest-suffix assignment score of \p States over a multi-channel table:
/// the sum over states (plus the default) of every channel's majority.
uint64_t channelScore(const ChannelPatterns &T,
                      const std::vector<SymbolString> &States) {
  std::set<SymbolString> Set(States.begin(), States.end());
  size_t C = T.Channels;
  std::vector<DirCounts> Acc((States.size() + 1) * C);
  for (size_t PI = 0; PI < T.Syms.size(); ++PI) {
    const SymbolString &S = T.Syms[PI];
    size_t Row = States.size();
    for (size_t L = S.size(); L >= 1; --L) {
      auto It = Set.find(SymbolString(S.end() - static_cast<long>(L), S.end()));
      if (It != Set.end()) {
        Row = static_cast<size_t>(std::distance(Set.begin(), It));
        break;
      }
    }
    for (size_t J = 0; J < C; ++J) {
      Acc[Row * C + J].Taken += T.Counts[PI * C + J].Taken;
      Acc[Row * C + J].NotTaken += T.Counts[PI * C + J].NotTaken;
    }
  }
  uint64_t Score = 0;
  for (const DirCounts &A : Acc)
    Score += std::max(A.Taken, A.NotTaken);
  return Score;
}

/// Distinct random patterns over \p Alphabet symbols, lengths 0..MaxLen
/// (the empty pattern only when \p AllowEmpty), with random counts.
ChannelPatterns randomTable(Rng &G, unsigned Channels, unsigned Alphabet,
                            unsigned MaxLen, unsigned NumPatterns,
                            bool AllowEmpty) {
  ChannelPatterns T;
  T.Channels = Channels;
  std::set<SymbolString> Seen;
  for (unsigned Tries = 0; Tries < NumPatterns * 4 &&
                           T.Syms.size() < NumPatterns;
       ++Tries) {
    SymbolString S(G.below(MaxLen + 1));
    if (S.empty() && !AllowEmpty)
      continue;
    for (uint32_t &Sym : S)
      Sym = static_cast<uint32_t>(G.below(Alphabet));
    if (!Seen.insert(S).second)
      continue;
    T.Syms.push_back(S);
    for (unsigned J = 0; J < Channels; ++J) {
      DirCounts D;
      // Sparse channels, like a joint table where most histories precede
      // only some members.
      if (G.below(3) != 0) {
        D.Taken = G.below(80);
        D.NotTaken = G.below(80);
      }
      T.Counts.push_back(D);
    }
  }
  return T;
}

std::vector<SymbolString> randomForced(Rng &G, unsigned MinLen,
                                       unsigned Alphabet) {
  switch (G.below(4)) {
  case 0:
    return {};
  case 1: // the machine-search catch-all bases
    return MinLen == 1 ? std::vector<SymbolString>{{0}, {1}}
                       : std::vector<SymbolString>{{0, 0}, {0, 1}, {1, 0},
                                                   {1, 1}};
  case 2:
    return {SymbolString()}; // the joint machine's empty state
  default: {
    std::vector<SymbolString> F;
    for (uint64_t I = 0, N = 1 + G.below(3); I < N; ++I) {
      SymbolString S(MinLen + G.below(2));
      for (uint32_t &Sym : S)
        Sym = static_cast<uint32_t>(G.below(Alphabet));
      F.push_back(S); // duplicates allowed: they count against the budget
    }
    return F;
  }
  }
}

/// The joint-loop profiler as it stood before histories were interned: one
/// map lookup on the history string per member event.
JointProfile oracleProfileJointLoop(const ProgramAnalysis &PA,
                                    const std::vector<int32_t> &Members,
                                    const Trace &T, unsigned MaxLen) {
  JointProfile Out;
  const BranchClass &C0 = PA.classOf(Members[0]);
  uint32_t FuncIdx = PA.ref(Members[0]).FuncIdx;
  const Loop &L =
      PA.loopInfoFor(Members[0]).loops()[static_cast<size_t>(C0.LoopIdx)];
  std::vector<int32_t> Sorted = Members;
  std::sort(Sorted.begin(), Sorted.end());
  SymbolString History;
  for (const BranchEvent &E : T) {
    const BranchRef &R = PA.ref(E.BranchId);
    if (R.FuncIdx != FuncIdx || !L.contains(R.BlockIdx)) {
      History.clear();
      continue;
    }
    auto It = std::lower_bound(Sorted.begin(), Sorted.end(), E.BranchId);
    if (It == Sorted.end() || *It != E.BranchId)
      continue;
    size_t MI = static_cast<size_t>(It - Sorted.begin());
    auto &PerMember = Out.PerPattern[History];
    if (PerMember.empty())
      PerMember.resize(Sorted.size());
    PerMember[MI].record(E.Taken);
    ++Out.Executions;
    History.push_back(static_cast<uint32_t>(MI << 1) | (E.Taken ? 1 : 0));
    if (History.size() > MaxLen)
      History.erase(History.begin());
  }
  return Out;
}

void expectSameProfile(const JointProfile &A, const JointProfile &B) {
  EXPECT_EQ(A.Executions, B.Executions);
  ASSERT_EQ(A.PerPattern.size(), B.PerPattern.size());
  for (auto ItA = A.PerPattern.begin(), ItB = B.PerPattern.begin();
       ItA != A.PerPattern.end(); ++ItA, ++ItB) {
    ASSERT_EQ(ItA->first, ItB->first);
    ASSERT_EQ(ItA->second.size(), ItB->second.size());
    for (size_t J = 0; J < ItA->second.size(); ++J) {
      EXPECT_EQ(ItA->second[J].Taken, ItB->second[J].Taken);
      EXPECT_EQ(ItA->second[J].NotTaken, ItB->second[J].NotTaken);
    }
  }
}

} // namespace

TEST(SearchEquivalence, JointProfileMatchesEventVectorWalk) {
  // Every loop of every workload that holds two or more branches, joint
  // histories of length 0, 2 and 4, from both trace layouts.
  size_t Groups = 0;
  for (const Workload &W : allWorkloads()) {
    Module M;
    Trace T = traceWorkload(W, /*Seed=*/1, M, 1'000'000);
    ColumnarTrace CT = ColumnarTrace::fromEvents(T);
    CT.finalize(static_cast<uint32_t>(M.conditionalBranchCount()));
    ProgramAnalysis PA(M);
    std::map<std::pair<uint32_t, int32_t>, std::vector<int32_t>> ByLoop;
    for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
      const BranchClass &C = PA.classOf(static_cast<int32_t>(Id));
      if (C.Kind != BranchKind::NonLoop)
        ByLoop[{PA.ref(static_cast<int32_t>(Id)).FuncIdx, C.LoopIdx}]
            .push_back(static_cast<int32_t>(Id));
    }
    for (auto &[Key, Members] : ByLoop) {
      if (Members.size() < 2)
        continue;
      ++Groups;
      std::reverse(Members.begin(), Members.end()); // callers need not sort
      for (unsigned MaxLen : {0u, 2u, 4u}) {
        SCOPED_TRACE(std::string(W.Name) + " max_len=" +
                     std::to_string(MaxLen));
        JointProfile Expected = oracleProfileJointLoop(PA, Members, T, MaxLen);
        expectSameProfile(profileJointLoop(PA, Members, CT, MaxLen), Expected);
        expectSameProfile(profileJointLoop(PA, Members, T, MaxLen), Expected);
      }
    }
  }
  EXPECT_GT(Groups, 8u);
}

TEST(SearchEquivalence, IncrementalEngineMatchesFullRescanOracle) {
  unsigned Exhausted = 0, Completed = 0;
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    Rng G(Seed);
    unsigned Channels = 1 + static_cast<unsigned>(G.below(4));
    unsigned Alphabet = 2 + static_cast<unsigned>(G.below(3));
    SelectOptions Opts;
    Opts.MinLen = 1 + static_cast<unsigned>(G.below(2));
    Opts.MaxLen = Opts.MinLen + static_cast<unsigned>(G.below(4));
    Opts.MaxSelected = 1 + static_cast<unsigned>(G.below(8));
    Opts.SubstringClosure = G.below(2) != 0;
    Opts.Exhaustive = G.below(8) != 0;
    Opts.NodeBudget = G.below(3) == 0 ? 1 + G.below(60) : 2'000'000;
    ChannelPatterns T =
        randomTable(G, Channels, Alphabet, Opts.MaxLen + 2,
                    4 + static_cast<unsigned>(G.below(40)),
                    /*AllowEmpty=*/G.below(2) != 0);
    std::vector<SymbolString> Forced =
        randomForced(G, Opts.MinLen, Alphabet);

    StateSearch New = searchSuffixStates(T, Forced, Opts);
    oracle::OracleResult Old = oracle::OracleSearch(T, Forced, Opts).run();
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    ASSERT_EQ(New.States, Old.States);
    ASSERT_EQ(New.BudgetExhausted, Old.BudgetExhausted);
    ASSERT_EQ(New.Nodes, Old.Nodes);
    ASSERT_EQ(channelScore(T, New.States), channelScore(T, Old.States));
    (New.BudgetExhausted ? Exhausted : Completed) += 1;

    if (Channels == 1) {
      // The single-channel public entry point reports the same selection.
      std::vector<ObservedPattern> Pats;
      for (size_t PI = 0; PI < T.Syms.size(); ++PI)
        Pats.push_back({T.Syms[PI], T.Counts[PI]});
      SuffixSelection Sel = selectSuffixStates(Pats, Forced, Opts);
      EXPECT_EQ(Sel.Correct, scoreStateSet(Pats, Old.States).Correct);
      EXPECT_EQ(Sel.Correct, channelScore(T, Old.States));
      EXPECT_EQ(Sel.BudgetExhausted, Old.BudgetExhausted);
      EXPECT_EQ(Sel.Nodes, Old.Nodes);
    }
  }
  // Both budget regimes were exercised.
  EXPECT_GT(Exhausted, 20u);
  EXPECT_GT(Completed, 100u);
}

TEST(SearchEquivalence, JointMachinesMatchFormerJointSearch) {
  unsigned Exhausted = 0, Completed = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Rng G(Seed * 7919);
    size_t Members = 1 + G.below(4);
    JointOptions Opts;
    Opts.MaxStates = 1 + static_cast<unsigned>(G.below(9));
    Opts.MaxLen = 1 + static_cast<unsigned>(G.below(4));
    Opts.Exhaustive = G.below(8) != 0;
    Opts.NodeBudget = G.below(3) == 0 ? 1 + G.below(80) : 200'000;
    // A joint profile: histories over (member, direction) symbols, at most
    // MaxLen long, the empty history included.
    ChannelPatterns T = randomTable(
        G, static_cast<unsigned>(Members), static_cast<unsigned>(2 * Members),
        Opts.MaxLen, 4 + static_cast<unsigned>(G.below(50)),
        /*AllowEmpty=*/true);
    JointProfile P;
    for (size_t PI = 0; PI < T.Syms.size(); ++PI)
      P.PerPattern[T.Syms[PI]].assign(
          T.Counts.begin() + static_cast<long>(PI * Members),
          T.Counts.begin() + static_cast<long>((PI + 1) * Members));
    std::vector<int32_t> Ids(Members);
    for (size_t J = 0; J < Members; ++J)
      Ids[J] = static_cast<int32_t>(10 + J);

    JointLoopMachine New = buildJointLoopMachine(Ids, P, Opts);
    oracle::OracleResult Old =
        oracle::OracleJointSearch(P, Members, Opts).run();
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    ASSERT_EQ(New.States, Old.States);
    ASSERT_EQ(New.BudgetExhausted, Old.BudgetExhausted);
    ASSERT_EQ(New.Nodes, Old.Nodes);
    ASSERT_EQ(New.Correct, channelScore(T, Old.States));
    (New.BudgetExhausted ? Exhausted : Completed) += 1;
  }
  EXPECT_GT(Exhausted, 10u);
  EXPECT_GT(Completed, 50u);
}

TEST(SearchEquivalence, TieWithAnEmptyBestSetKeepsTheFirstSetSeen) {
  // No forced state and a budget of one: no single state beats the empty
  // set (score 10 either way), yet the bound does ("0" plus "00" would score
  // 20), so the DFS visits {"0"}. The engines replace an empty best set on a
  // tie, so {"0"} wins over {} although it adds nothing; the incremental
  // engine must keep that tie-break.
  ChannelPatterns T;
  T.Syms = {{0, 0}, {1, 0}};
  T.Counts = {DirCounts{10, 0}, DirCounts{0, 10}};
  SelectOptions Opts;
  Opts.MaxSelected = 1;
  Opts.MaxLen = 2;
  StateSearch New = searchSuffixStates(T, {}, Opts);
  oracle::OracleResult Old = oracle::OracleSearch(T, {}, Opts).run();
  EXPECT_EQ(New.States, Old.States);
  EXPECT_EQ(New.Nodes, Old.Nodes);
  EXPECT_EQ(New.States, std::vector<SymbolString>{{0}});
}
