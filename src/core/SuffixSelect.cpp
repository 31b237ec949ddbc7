//===- core/SuffixSelect.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Implementation notes. All suffixes of the observed patterns are interned
// once; every pattern precomputes its suffix-id list (longest first), and
// every interned state lists the (pattern, list position) pairs it is a
// suffix of. The exact search is DFS over include/exclude decisions per
// candidate with an admissible bound: the score of the current set plus
// every remaining candidate (the assignment score is monotone in the set
// because adding states only refines the pattern partition).
//
// Scoring is incremental. Two longest-suffix assignments are maintained,
// each with per-(state, channel) counts and a running score: the selected
// set, and the bound set (selected plus every remaining candidate).
// Including a candidate adds it to the selected set; excluding it removes
// it from the bound set. Either move touches only the patterns the state is
// a suffix of, and an undo log reverts it when the DFS backtracks, so a
// node's score and bound are O(1) reads. Greedy steps are add + undo.
//
//===----------------------------------------------------------------------===//

#include "core/SuffixSelect.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

using namespace bpcr;

namespace {

bool stringLess(const SymbolString &A, const SymbolString &B) {
  if (A.size() != B.size())
    return A.size() < B.size();
  return A < B;
}

SymbolString suffixOf(const SymbolString &S, size_t Len) {
  assert(Len <= S.size() && "suffix longer than string");
  return SymbolString(S.end() - static_cast<long>(Len), S.end());
}

uint64_t majority(const DirCounts &C) { return std::max(C.Taken, C.NotTaken); }

/// Interned-suffix search context.
class Search {
public:
  Search(const ChannelPatterns &Patterns,
         const std::vector<SymbolString> &Forced, const SelectOptions &Opts)
      : Patterns(Patterns), C(Patterns.Channels), Opts(Opts) {
    // Intern forced states and every candidate suffix.
    for (const SymbolString &F : Forced) {
      int Id = intern(F);
      IsForced[static_cast<size_t>(Id)] = true;
    }
    for (const SymbolString &P : Patterns.Syms) {
      size_t MaxL = std::min<size_t>(P.size(), Opts.MaxLen);
      for (size_t L = Opts.MinLen; L <= MaxL; ++L)
        intern(suffixOf(P, L));
      if (Opts.SubstringClosure) {
        // Also make every contiguous substring available, so a long state
        // can always be reached through its prefixes.
        for (size_t Start = 0; Start < P.size(); ++Start)
          for (size_t L = Opts.MinLen;
               L <= Opts.MaxLen && Start + L <= P.size(); ++L)
            intern(SymbolString(P.begin() + static_cast<long>(Start),
                                P.begin() + static_cast<long>(Start + L)));
      }
    }

    // Parent links: suffix parent (drop oldest) and, for substring
    // closure, the init parent (drop newest).
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
      // A candidate without a parent is never legal. Under substring
      // closure both parents are substrings of the same pattern, so they
      // are interned; joint machines rely on this (their former search
      // hung a parentless candidate off the always-present empty state).
      if (Opts.SubstringClosure && !IsForced[Id] &&
          (Parent[Id] < 0 || InitParent[Id] < 0))
        throw std::logic_error(
            "suffix search: substring closure left a candidate without an "
            "interned parent");
    }

    // Per-pattern suffix-id lists, longest first, and the inverse
    // occurrence lists per state.
    SufStart.push_back(0);
    for (const SymbolString &S : Patterns.Syms) {
      for (size_t L = std::min<size_t>(S.size(), Opts.MaxLen); L >= 1; --L) {
        auto It = Ids.find(suffixOf(S, L));
        if (It != Ids.end())
          SufIds.push_back(static_cast<uint32_t>(It->second));
      }
      SufStart.push_back(static_cast<uint32_t>(SufIds.size()));
    }
    OccStart.assign(Strings.size() + 1, 0);
    for (uint32_t Id : SufIds)
      ++OccStart[Id + 1];
    for (size_t Id = 0; Id < Strings.size(); ++Id)
      OccStart[Id + 1] += OccStart[Id];
    Occ.resize(SufIds.size());
    std::vector<uint32_t> Fill(OccStart.begin(), OccStart.end() - 1);
    for (uint32_t PI = 0; PI + 1 < SufStart.size(); ++PI)
      for (uint32_t K = SufStart[PI]; K < SufStart[PI + 1]; ++K)
        Occ[Fill[SufIds[K]]++] = {PI, K - SufStart[PI]};

    // Candidate order: by (length, content) so parents precede children.
    for (size_t Id = 0; Id < Strings.size(); ++Id) {
      if (IsForced[Id])
        ForcedIds.push_back(Id);
      else
        Candidates.push_back(static_cast<int>(Id));
    }
    std::sort(Candidates.begin(), Candidates.end(), [this](int A, int B) {
      return stringLess(Strings[static_cast<size_t>(A)],
                        Strings[static_cast<size_t>(B)]);
    });
    NumForced = Forced.size();
  }

  /// Runs greedy then (optionally) exact search.
  StateSearch run() {
    Sel.init(*this);
    for (size_t Id : ForcedIds)
      Sel.add(*this, Id);
    Sel.Log.clear();
    greedy();
    if (Opts.Exhaustive) {
      Bnd.init(*this);
      for (size_t Id : ForcedIds)
        Bnd.add(*this, Id);
      for (int Id : Candidates)
        Bnd.add(*this, static_cast<size_t>(Id));
      Bnd.Log.clear();
      dfs(0);
    }
    StateSearch Out;
    for (size_t Id : BestIds)
      Out.States.push_back(Strings[Id]);
    std::sort(Out.States.begin(), Out.States.end(), stringLess);
    Out.BudgetExhausted = BudgetExhausted;
    Out.Nodes = Nodes;
    return Out;
  }

private:
  /// Position of one state in one pattern's suffix list.
  struct Occurrence {
    uint32_t Pattern;
    uint32_t Pos;
  };

  /// A longest-suffix assignment of every pattern over a state set, with
  /// per-(state, channel) counts and the set's score, kept incrementally.
  /// Every change is logged so undo(Mark) restores an earlier assignment.
  struct Assignment {
    /// Log entry: the pattern and its previous list position, or a state
    /// membership flip (Pattern == Flip, Pos = state id).
    static constexpr uint32_t Flip = UINT32_MAX;

    std::vector<uint8_t> In;
    /// Per pattern: list position of its assigned state; the list length
    /// means the default (empty) state.
    std::vector<uint32_t> Pos;
    /// (states + 1) x channels; the last row is the default state.
    std::vector<DirCounts> Acc;
    uint64_t Score = 0;
    std::vector<Occurrence> Log;

    void init(const Search &S) {
      size_t NumPatterns = S.SufStart.size() - 1;
      In.assign(S.Strings.size(), 0);
      Pos.resize(NumPatterns);
      for (size_t PI = 0; PI < NumPatterns; ++PI)
        Pos[PI] = S.SufStart[PI + 1] - S.SufStart[PI];
      Acc.assign((S.Strings.size() + 1) * S.C, DirCounts());
      DirCounts *Default = &Acc[S.Strings.size() * S.C];
      for (size_t PI = 0; PI < NumPatterns; ++PI)
        for (size_t J = 0; J < S.C; ++J) {
          Default[J].Taken += S.Patterns.Counts[PI * S.C + J].Taken;
          Default[J].NotTaken += S.Patterns.Counts[PI * S.C + J].NotTaken;
        }
      Score = 0;
      for (size_t J = 0; J < S.C; ++J)
        Score += majority(Default[J]);
      Log.clear();
    }

    size_t rowOf(const Search &S, uint32_t PI, uint32_t P) const {
      uint32_t Begin = S.SufStart[PI];
      return Begin + P == S.SufStart[PI + 1] ? S.Strings.size()
                                             : S.SufIds[Begin + P];
    }

    /// Reassigns pattern \p PI to list position \p NewPos.
    void move(const Search &S, uint32_t PI, uint32_t NewPos) {
      DirCounts *From = &Acc[rowOf(S, PI, Pos[PI]) * S.C];
      DirCounts *To = &Acc[rowOf(S, PI, NewPos) * S.C];
      const DirCounts *Counts = &S.Patterns.Counts[PI * S.C];
      for (size_t J = 0; J < S.C; ++J) {
        Score -= majority(From[J]) + majority(To[J]);
        From[J].Taken -= Counts[J].Taken;
        From[J].NotTaken -= Counts[J].NotTaken;
        To[J].Taken += Counts[J].Taken;
        To[J].NotTaken += Counts[J].NotTaken;
        Score += majority(From[J]) + majority(To[J]);
      }
      Pos[PI] = NewPos;
    }

    /// Adds state \p Id: patterns whose assigned suffix is shorter move
    /// to it.
    void add(const Search &S, size_t Id) {
      Log.push_back({Flip, static_cast<uint32_t>(Id)});
      In[Id] = 1;
      for (uint32_t I = S.OccStart[Id]; I < S.OccStart[Id + 1]; ++I) {
        const Occurrence &O = S.Occ[I];
        if (O.Pos < Pos[O.Pattern]) {
          Log.push_back({O.Pattern, Pos[O.Pattern]});
          move(S, O.Pattern, O.Pos);
        }
      }
    }

    /// Removes state \p Id: its patterns fall back to their next longest
    /// suffix in the set (or the default state).
    void remove(const Search &S, size_t Id) {
      Log.push_back({Flip, static_cast<uint32_t>(Id)});
      In[Id] = 0;
      for (uint32_t I = S.OccStart[Id]; I < S.OccStart[Id + 1]; ++I) {
        const Occurrence &O = S.Occ[I];
        if (Pos[O.Pattern] != O.Pos)
          continue;
        uint32_t Begin = S.SufStart[O.Pattern];
        uint32_t Len = S.SufStart[O.Pattern + 1] - Begin;
        uint32_t Next = O.Pos + 1;
        while (Next < Len && !In[S.SufIds[Begin + Next]])
          ++Next;
        Log.push_back({O.Pattern, O.Pos});
        move(S, O.Pattern, Next);
      }
    }

    void undo(const Search &S, size_t Mark) {
      while (Log.size() > Mark) {
        Occurrence E = Log.back();
        Log.pop_back();
        if (E.Pattern == Flip)
          In[E.Pos] ^= 1;
        else
          move(S, E.Pattern, E.Pos);
      }
    }
  };

  int intern(const SymbolString &S) {
    auto [It, Inserted] = Ids.emplace(S, static_cast<int>(Strings.size()));
    if (Inserted) {
      Strings.push_back(S);
      IsForced.push_back(false);
    }
    return It->second;
  }

  bool isLegal(int CandId) const {
    const SymbolString &S = Strings[static_cast<size_t>(CandId)];
    if (S.size() <= Opts.MinLen)
      return true;
    int P = Parent[static_cast<size_t>(CandId)];
    if (P < 0 || !Sel.In[static_cast<size_t>(P)])
      return false;
    if (Opts.SubstringClosure) {
      int IP = InitParent[static_cast<size_t>(CandId)];
      if (IP < 0 || !Sel.In[static_cast<size_t>(IP)])
        return false;
    }
    return true;
  }

  unsigned budgetLeft() const {
    size_t Used = Selected.size() + NumForced;
    return Opts.MaxSelected > Used
               ? static_cast<unsigned>(Opts.MaxSelected - Used)
               : 0;
  }

  void consider() {
    if (Sel.Score > BestScore || BestIds.empty()) {
      BestScore = Sel.Score;
      BestIds = ForcedIds;
      BestIds.insert(BestIds.end(), Selected.begin(), Selected.end());
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
    if (Bnd.Score <= BestScore)
      return;

    size_t Id = static_cast<size_t>(Candidates[Idx]);
    if (isLegal(Candidates[Idx])) {
      size_t Mark = Sel.Log.size();
      Sel.add(*this, Id);
      Selected.push_back(Id);
      dfs(Idx + 1);
      Selected.pop_back();
      Sel.undo(*this, Mark);
      if (BudgetExhausted)
        return;
    }
    size_t Mark = Bnd.Log.size();
    Bnd.remove(*this, Id);
    dfs(Idx + 1);
    Bnd.undo(*this, Mark);
  }

  void greedy() {
    consider();
    while (budgetLeft() > 0) {
      uint64_t Base = Sel.Score;
      uint64_t BestGain = 0;
      int BestCand = -1;
      for (int Cand : Candidates) {
        size_t Id = static_cast<size_t>(Cand);
        if (Sel.In[Id] || !isLegal(Cand))
          continue;
        size_t Mark = Sel.Log.size();
        Sel.add(*this, Id);
        uint64_t S = Sel.Score;
        Sel.undo(*this, Mark);
        if (S > Base && S - Base > BestGain) {
          BestGain = S - Base;
          BestCand = Cand;
        }
      }
      if (BestCand < 0)
        break;
      Sel.add(*this, static_cast<size_t>(BestCand));
      Selected.push_back(static_cast<size_t>(BestCand));
      consider();
    }
    // Back to the forced states alone for the exact phase.
    Sel.undo(*this, 0);
    Selected.clear();
  }

  const ChannelPatterns &Patterns;
  size_t C;
  const SelectOptions &Opts;

  std::map<SymbolString, int> Ids;
  std::vector<SymbolString> Strings;
  std::vector<bool> IsForced;
  std::vector<int> Parent;
  std::vector<int> InitParent;
  /// Pattern PI's suffix ids are SufIds[SufStart[PI] .. SufStart[PI+1]).
  std::vector<uint32_t> SufStart, SufIds;
  /// State Id's occurrences are Occ[OccStart[Id] .. OccStart[Id+1]).
  std::vector<uint32_t> OccStart;
  std::vector<Occurrence> Occ;
  std::vector<int> Candidates;
  std::vector<size_t> ForcedIds;
  size_t NumForced = 0;

  Assignment Sel, Bnd;
  /// Candidates currently included, in inclusion order.
  std::vector<size_t> Selected;

  uint64_t BestScore = 0;
  std::vector<size_t> BestIds;
  uint64_t Nodes = 0;
  bool BudgetExhausted = false;
};

} // namespace

StateSearch bpcr::searchSuffixStates(const ChannelPatterns &Patterns,
                                     const std::vector<SymbolString> &Forced,
                                     const SelectOptions &Opts) {
  assert(Patterns.Counts.size() == Patterns.Syms.size() * Patterns.Channels &&
         "one counts row per pattern");
  return Search(Patterns, Forced, Opts).run();
}

SuffixSelection
bpcr::scoreStateSet(const std::vector<ObservedPattern> &Patterns,
                    const std::vector<SymbolString> &States) {
  SuffixSelection Out;
  Out.States = States;
  std::sort(Out.States.begin(), Out.States.end(), stringLess);
  Out.States.erase(std::unique(Out.States.begin(), Out.States.end()),
                   Out.States.end());

  auto FindAssigned = [&Out](const SymbolString &Syms) -> long {
    // Longest selected suffix.
    for (size_t L = Syms.size(); L >= 1; --L) {
      SymbolString Probe = suffixOf(Syms, L);
      auto It = std::lower_bound(Out.States.begin(), Out.States.end(), Probe,
                                 stringLess);
      if (It != Out.States.end() && *It == Probe)
        return It - Out.States.begin();
      if (L == 1)
        break;
    }
    return -1;
  };

  Out.StateCounts.assign(Out.States.size(), DirCounts());
  for (const ObservedPattern &P : Patterns) {
    long Idx = P.Syms.empty() ? -1 : FindAssigned(P.Syms);
    DirCounts &G =
        Idx < 0 ? Out.DefaultCounts : Out.StateCounts[static_cast<size_t>(Idx)];
    G.Taken += P.Counts.Taken;
    G.NotTaken += P.Counts.NotTaken;
  }

  Out.StatePred.resize(Out.States.size());
  for (size_t I = 0; I < Out.States.size(); ++I) {
    Out.StatePred[I] = Out.StateCounts[I].majorityTaken() ? 1 : 0;
    Out.Correct +=
        std::max(Out.StateCounts[I].Taken, Out.StateCounts[I].NotTaken);
    Out.Total += Out.StateCounts[I].total();
  }
  Out.DefaultPred = Out.DefaultCounts.majorityTaken() ? 1 : 0;
  Out.Correct += std::max(Out.DefaultCounts.Taken, Out.DefaultCounts.NotTaken);
  Out.Total += Out.DefaultCounts.total();
  return Out;
}

SuffixSelection
bpcr::selectSuffixStates(const std::vector<ObservedPattern> &Patterns,
                         const std::vector<SymbolString> &Forced,
                         const SelectOptions &Opts) {
  ChannelPatterns Table;
  for (const ObservedPattern &P : Patterns) {
    Table.Syms.push_back(P.Syms);
    Table.Counts.push_back(P.Counts);
  }
  StateSearch Best = searchSuffixStates(Table, Forced, Opts);

  SuffixSelection Out = scoreStateSet(Patterns, Best.States);
  Out.BudgetExhausted = Best.BudgetExhausted;
  Out.Nodes = Best.Nodes;
  if (Registry::global().enabled())
    Registry::global().counter("search.suffix.nodes").add(Best.Nodes);
  return Out;
}
