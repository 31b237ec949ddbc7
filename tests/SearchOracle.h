//===- tests/SearchOracle.h - Full-rescan suffix-state search oracles -----===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two branch-and-bound searches the incremental engine in
/// core/SuffixSelect.cpp replaced, kept as equality oracles. Both recompute
/// the full longest-suffix assignment of every pattern at every node, once
/// for the node's own score and once for its bound:
///  - OracleSearch: the generic engine (forced states, MinLen, optional
///    substring closure), with its single counts channel generalized to C
///    channels summed per state;
///  - OracleJointSearch: the joint-machine copy, verbatim — the empty state
///    is always selected, and a candidate whose parent is not interned
///    hangs off the empty state.
/// The DFS order, bounds, tie-breaks and node budget are the engine's
/// contract; tests compare chosen states, exhaustion and node counts.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TESTS_SEARCHORACLE_H
#define BPCR_TESTS_SEARCHORACLE_H

#include "core/JointMachine.h"
#include "core/SuffixSelect.h"

#include <algorithm>
#include <map>
#include <vector>

namespace bpcr::oracle {

inline bool stringLess(const SymbolString &A, const SymbolString &B) {
  if (A.size() != B.size())
    return A.size() < B.size();
  return A < B;
}

inline SymbolString suffixOf(const SymbolString &S, size_t Len) {
  return SymbolString(S.end() - static_cast<long>(Len), S.end());
}

/// Outcome of an oracle search: states sorted by (length, content).
struct OracleResult {
  std::vector<SymbolString> States;
  bool BudgetExhausted = false;
  uint64_t Nodes = 0;
};

class OracleSearch {
public:
  OracleSearch(const ChannelPatterns &Patterns,
               const std::vector<SymbolString> &Forced,
               const SelectOptions &Opts)
      : Patterns(Patterns), C(Patterns.Channels), Opts(Opts) {
    for (const SymbolString &F : Forced) {
      int Id = intern(F);
      IsForced[static_cast<size_t>(Id)] = true;
    }
    for (const SymbolString &P : Patterns.Syms) {
      size_t MaxL = std::min<size_t>(P.size(), Opts.MaxLen);
      for (size_t L = Opts.MinLen; L <= MaxL; ++L)
        intern(suffixOf(P, L));
      if (Opts.SubstringClosure)
        for (size_t Start = 0; Start < P.size(); ++Start)
          for (size_t L = Opts.MinLen;
               L <= Opts.MaxLen && Start + L <= P.size(); ++L)
            intern(SymbolString(P.begin() + static_cast<long>(Start),
                                P.begin() + static_cast<long>(Start + L)));
    }
    Parent.assign(Strings.size(), -1);
    InitParent.assign(Strings.size(), -1);
    for (size_t Id = 0; Id < Strings.size(); ++Id) {
      const SymbolString &S = Strings[Id];
      if (S.size() <= Opts.MinLen)
        continue;
      auto It = Ids.find(suffixOf(S, S.size() - 1));
      if (It != Ids.end())
        Parent[Id] = It->second;
      auto It2 = Ids.find(SymbolString(S.begin(), S.end() - 1));
      if (It2 != Ids.end())
        InitParent[Id] = It2->second;
    }
    PatternSuffixes.resize(Patterns.Syms.size());
    for (size_t PI = 0; PI < Patterns.Syms.size(); ++PI) {
      const SymbolString &S = Patterns.Syms[PI];
      size_t MaxL = std::min<size_t>(S.size(), Opts.MaxLen);
      for (size_t L = MaxL; L >= 1; --L) {
        auto It = Ids.find(suffixOf(S, L));
        if (It != Ids.end())
          PatternSuffixes[PI].push_back(It->second);
      }
    }
    for (size_t Id = 0; Id < Strings.size(); ++Id)
      if (!IsForced[Id])
        Candidates.push_back(static_cast<int>(Id));
    std::sort(Candidates.begin(), Candidates.end(), [this](int A, int B) {
      return stringLess(Strings[static_cast<size_t>(A)],
                        Strings[static_cast<size_t>(B)]);
    });
    InSet.assign(Strings.size(), 0);
    for (size_t Id = 0; Id < Strings.size(); ++Id)
      if (IsForced[Id])
        InSet[Id] = 1;
    NumForced = Forced.size();
  }

  OracleResult run() {
    greedy();
    if (Opts.Exhaustive) {
      SelectedCount = 0;
      for (int Cand : Candidates)
        InSet[static_cast<size_t>(Cand)] = 0;
      dfs(0);
    }
    OracleResult Out;
    for (size_t Id : BestIds)
      Out.States.push_back(Strings[Id]);
    std::sort(Out.States.begin(), Out.States.end(), stringLess);
    Out.BudgetExhausted = BudgetExhausted;
    Out.Nodes = Nodes;
    return Out;
  }

private:
  int intern(const SymbolString &S) {
    auto [It, Inserted] = Ids.emplace(S, static_cast<int>(Strings.size()));
    if (Inserted) {
      Strings.push_back(S);
      IsForced.push_back(false);
    }
    return It->second;
  }

  uint64_t score() const {
    std::vector<DirCounts> Acc((Strings.size() + 1) * C);
    size_t Default = Strings.size();
    for (size_t PI = 0; PI < Patterns.Syms.size(); ++PI) {
      size_t Row = Default;
      for (int Id : PatternSuffixes[PI])
        if (InSet[static_cast<size_t>(Id)]) {
          Row = static_cast<size_t>(Id);
          break;
        }
      for (size_t J = 0; J < C; ++J) {
        Acc[Row * C + J].Taken += Patterns.Counts[PI * C + J].Taken;
        Acc[Row * C + J].NotTaken += Patterns.Counts[PI * C + J].NotTaken;
      }
    }
    uint64_t S = 0;
    for (const DirCounts &A : Acc)
      S += std::max(A.Taken, A.NotTaken);
    return S;
  }

  uint64_t scoreWithRest(size_t From) {
    std::vector<size_t> Flipped;
    for (size_t I = From; I < Candidates.size(); ++I) {
      size_t Id = static_cast<size_t>(Candidates[I]);
      if (!InSet[Id]) {
        InSet[Id] = 1;
        Flipped.push_back(Id);
      }
    }
    uint64_t S = score();
    for (size_t Id : Flipped)
      InSet[Id] = 0;
    return S;
  }

  bool isLegal(int CandId) const {
    const SymbolString &S = Strings[static_cast<size_t>(CandId)];
    if (S.size() <= Opts.MinLen)
      return true;
    int P = Parent[static_cast<size_t>(CandId)];
    if (P < 0 || !InSet[static_cast<size_t>(P)])
      return false;
    if (Opts.SubstringClosure) {
      int IP = InitParent[static_cast<size_t>(CandId)];
      if (IP < 0 || !InSet[static_cast<size_t>(IP)])
        return false;
    }
    return true;
  }

  unsigned budgetLeft() const {
    size_t Used = SelectedCount + NumForced;
    return Opts.MaxSelected > Used
               ? static_cast<unsigned>(Opts.MaxSelected - Used)
               : 0;
  }

  void consider() {
    uint64_t S = score();
    if (S > BestScore || BestIds.empty()) {
      BestScore = S;
      BestIds.clear();
      for (size_t Id = 0; Id < Strings.size(); ++Id)
        if (InSet[Id])
          BestIds.push_back(Id);
    }
  }

  void dfs(size_t Idx) {
    if (BudgetExhausted)
      return;
    if (++Nodes > Opts.NodeBudget) {
      BudgetExhausted = true;
      return;
    }
    consider();
    if (Idx >= Candidates.size() || budgetLeft() == 0)
      return;
    if (scoreWithRest(Idx) <= BestScore)
      return;
    int Id = Candidates[Idx];
    if (isLegal(Id)) {
      InSet[static_cast<size_t>(Id)] = 1;
      ++SelectedCount;
      dfs(Idx + 1);
      InSet[static_cast<size_t>(Id)] = 0;
      --SelectedCount;
      if (BudgetExhausted)
        return;
    }
    dfs(Idx + 1);
  }

  void greedy() {
    consider();
    while (budgetLeft() > 0) {
      uint64_t Base = score();
      uint64_t BestGain = 0;
      int BestCand = -1;
      for (int Cand : Candidates) {
        size_t Id = static_cast<size_t>(Cand);
        if (InSet[Id] || !isLegal(Cand))
          continue;
        InSet[Id] = 1;
        uint64_t S = score();
        InSet[Id] = 0;
        if (S > Base && S - Base > BestGain) {
          BestGain = S - Base;
          BestCand = Cand;
        }
      }
      if (BestCand < 0)
        break;
      InSet[static_cast<size_t>(BestCand)] = 1;
      ++SelectedCount;
      consider();
    }
    for (int Cand : Candidates)
      InSet[static_cast<size_t>(Cand)] = 0;
    SelectedCount = 0;
  }

  const ChannelPatterns &Patterns;
  size_t C;
  const SelectOptions &Opts;
  std::map<SymbolString, int> Ids;
  std::vector<SymbolString> Strings;
  std::vector<bool> IsForced;
  std::vector<int> Parent, InitParent;
  std::vector<std::vector<int>> PatternSuffixes;
  std::vector<int> Candidates;
  std::vector<uint8_t> InSet;
  size_t SelectedCount = 0;
  size_t NumForced = 0;
  uint64_t BestScore = 0;
  std::vector<size_t> BestIds;
  uint64_t Nodes = 0;
  bool BudgetExhausted = false;
};

/// The joint-machine search as it stood before the engines merged.
class OracleJointSearch {
public:
  OracleJointSearch(const JointProfile &Profile, size_t NumMembers,
                    const JointOptions &Opts)
      : NumMembers(NumMembers), Opts(Opts) {
    intern(SymbolString());
    for (const auto &[Syms, Counts] : Profile.PerPattern) {
      Patterns.push_back({Syms, Counts});
      size_t MaxL = std::min<size_t>(Syms.size(), Opts.MaxLen);
      for (size_t L = 1; L <= MaxL; ++L)
        intern(suffixOf(Syms, L));
      for (size_t Start = 0; Start < Syms.size(); ++Start)
        for (size_t L = 1; L <= Opts.MaxLen && Start + L <= Syms.size(); ++L)
          intern(SymbolString(Syms.begin() + static_cast<long>(Start),
                              Syms.begin() + static_cast<long>(Start + L)));
    }
    Parent.assign(Strings.size(), 0);
    InitParent.assign(Strings.size(), 0);
    for (size_t Id = 1; Id < Strings.size(); ++Id) {
      const SymbolString &S = Strings[Id];
      if (S.size() <= 1)
        continue;
      auto It = Ids.find(suffixOf(S, S.size() - 1));
      Parent[Id] = It == Ids.end() ? 0 : It->second;
      auto It2 = Ids.find(SymbolString(S.begin(), S.end() - 1));
      InitParent[Id] = It2 == Ids.end() ? 0 : It2->second;
    }
    PatternSuffixes.resize(Patterns.size());
    for (size_t PI = 0; PI < Patterns.size(); ++PI) {
      const SymbolString &S = Patterns[PI].Syms;
      size_t MaxL = std::min<size_t>(S.size(), Opts.MaxLen);
      for (size_t L = MaxL; L >= 1; --L) {
        auto It = Ids.find(suffixOf(S, L));
        if (It != Ids.end())
          PatternSuffixes[PI].push_back(It->second);
      }
      PatternSuffixes[PI].push_back(0);
    }
    for (size_t Id = 1; Id < Strings.size(); ++Id)
      Candidates.push_back(static_cast<int>(Id));
    std::sort(Candidates.begin(), Candidates.end(), [this](int A, int B) {
      return stringLess(Strings[static_cast<size_t>(A)],
                        Strings[static_cast<size_t>(B)]);
    });
    InSet.assign(Strings.size(), 0);
    InSet[0] = 1;
  }

  OracleResult run() {
    greedy();
    if (Opts.Exhaustive) {
      for (int Cand : Candidates)
        InSet[static_cast<size_t>(Cand)] = 0;
      SelectedCount = 0;
      dfs(0);
    }
    OracleResult Out;
    for (size_t Id : BestIds)
      Out.States.push_back(Strings[Id]);
    std::sort(Out.States.begin(), Out.States.end(), stringLess);
    Out.BudgetExhausted = BudgetExhausted;
    Out.Nodes = Nodes;
    return Out;
  }

private:
  struct Pattern {
    SymbolString Syms;
    std::vector<DirCounts> PerMember;
  };

  int intern(const SymbolString &S) {
    auto [It, Inserted] = Ids.emplace(S, static_cast<int>(Strings.size()));
    if (Inserted)
      Strings.push_back(S);
    return It->second;
  }

  uint64_t score() const {
    std::vector<DirCounts> Acc(Strings.size() * NumMembers);
    for (size_t PI = 0; PI < Patterns.size(); ++PI) {
      int Assigned = 0;
      for (int Id : PatternSuffixes[PI])
        if (InSet[static_cast<size_t>(Id)]) {
          Assigned = Id;
          break;
        }
      size_t Base = static_cast<size_t>(Assigned) * NumMembers;
      for (size_t J = 0; J < NumMembers; ++J) {
        Acc[Base + J].Taken += Patterns[PI].PerMember[J].Taken;
        Acc[Base + J].NotTaken += Patterns[PI].PerMember[J].NotTaken;
      }
    }
    uint64_t S = 0;
    for (const DirCounts &A : Acc)
      S += std::max(A.Taken, A.NotTaken);
    return S;
  }

  uint64_t scoreWithRest(size_t From) {
    std::vector<size_t> Flipped;
    for (size_t I = From; I < Candidates.size(); ++I) {
      size_t Id = static_cast<size_t>(Candidates[I]);
      if (!InSet[Id]) {
        InSet[Id] = 1;
        Flipped.push_back(Id);
      }
    }
    uint64_t S = score();
    for (size_t Id : Flipped)
      InSet[Id] = 0;
    return S;
  }

  bool isLegal(int CandId) const {
    return InSet[static_cast<size_t>(Parent[static_cast<size_t>(CandId)])] &&
           InSet[static_cast<size_t>(
               InitParent[static_cast<size_t>(CandId)])];
  }

  unsigned budgetLeft() const {
    size_t Used = SelectedCount + 1;
    return Opts.MaxStates > Used
               ? static_cast<unsigned>(Opts.MaxStates - Used)
               : 0;
  }

  void consider() {
    uint64_t S = score();
    if (S > BestScore || BestIds.empty()) {
      BestScore = S;
      BestIds.clear();
      for (size_t Id = 0; Id < Strings.size(); ++Id)
        if (InSet[Id])
          BestIds.push_back(Id);
    }
  }

  void dfs(size_t Idx) {
    if (BudgetExhausted)
      return;
    if (++Nodes > Opts.NodeBudget) {
      BudgetExhausted = true;
      return;
    }
    consider();
    if (Idx >= Candidates.size() || budgetLeft() == 0)
      return;
    if (scoreWithRest(Idx) <= BestScore)
      return;
    int Id = Candidates[Idx];
    if (isLegal(Id)) {
      InSet[static_cast<size_t>(Id)] = 1;
      ++SelectedCount;
      dfs(Idx + 1);
      InSet[static_cast<size_t>(Id)] = 0;
      --SelectedCount;
      if (BudgetExhausted)
        return;
    }
    dfs(Idx + 1);
  }

  void greedy() {
    consider();
    while (budgetLeft() > 0) {
      uint64_t Base = score();
      uint64_t BestGain = 0;
      int BestCand = -1;
      for (int Cand : Candidates) {
        size_t Id = static_cast<size_t>(Cand);
        if (InSet[Id] || !isLegal(Cand))
          continue;
        InSet[Id] = 1;
        uint64_t S = score();
        InSet[Id] = 0;
        if (S > Base && S - Base > BestGain) {
          BestGain = S - Base;
          BestCand = Cand;
        }
      }
      if (BestCand < 0)
        break;
      InSet[static_cast<size_t>(BestCand)] = 1;
      ++SelectedCount;
      consider();
    }
    for (int Cand : Candidates)
      InSet[static_cast<size_t>(Cand)] = 0;
    SelectedCount = 0;
  }

  size_t NumMembers;
  const JointOptions &Opts;
  std::map<SymbolString, int> Ids;
  std::vector<SymbolString> Strings;
  std::vector<int> Parent, InitParent;
  std::vector<Pattern> Patterns;
  std::vector<std::vector<int>> PatternSuffixes;
  std::vector<int> Candidates;
  std::vector<uint8_t> InSet;
  size_t SelectedCount = 0;
  uint64_t BestScore = 0;
  std::vector<size_t> BestIds;
  uint64_t Nodes = 0;
  bool BudgetExhausted = false;
};

} // namespace bpcr::oracle

#endif // BPCR_TESTS_SEARCHORACLE_H
