//===- core/CorrelatedMachine.cpp -----------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/CorrelatedMachine.h"

#include "trace/ColumnarTrace.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace bpcr;

namespace {

/// Packs a decision step into one selection symbol.
uint32_t encodeStep(const PathStep &S) {
  return (static_cast<uint32_t>(S.BranchId) << 1) | (S.Taken ? 1U : 0U);
}

PathStep decodeStep(uint32_t Sym) {
  return {static_cast<int32_t>(Sym >> 1), (Sym & 1U) != 0};
}

BranchPath decodePath(const SymbolString &S) {
  BranchPath P;
  P.Steps.reserve(S.size());
  for (uint32_t Sym : S)
    P.Steps.push_back(decodeStep(Sym));
  return P;
}

} // namespace

SymbolString bpcr::encodePathSteps(const BranchPath &P) {
  SymbolString S;
  S.reserve(P.Steps.size());
  for (const PathStep &Step : P.Steps)
    S.push_back(encodeStep(Step));
  return S;
}

int CorrelatedMachine::match(const std::vector<PathStep> &Recent) const {
  // Paths are sorted by (length, content); probe longest first.
  for (size_t L = std::min<size_t>(Recent.size(), MaxPathLen); L >= 1; --L) {
    BranchPath Probe;
    Probe.Steps.assign(Recent.end() - static_cast<long>(L), Recent.end());
    SymbolString Key = encodePathSteps(Probe);
    for (size_t I = Paths.size(); I-- > 0;) {
      if (Paths[I].Steps.size() != L)
        continue;
      if (encodePathSteps(Paths[I]) == Key)
        return static_cast<int>(I);
    }
    if (L == 1)
      break;
  }
  return -1;
}

namespace {

/// Shared global-order pass of profilePaths. \p EventAt yields the I-th
/// event (id, taken) so the legacy vector-of-structs trace and the
/// columnar trace share one body and stay bit-identical.
///
/// The longest candidate path that ends at an event is found by an
/// Aho-Corasick automaton over every branch's candidates (one multi-pattern
/// Morris-Pratt matcher). Its state is the longest suffix of the history
/// that is a prefix of some candidate, so every candidate that is a suffix
/// of the history is a suffix of the state's string, and each state knows
/// per branch which candidate that is. The pass therefore does one count
/// increment and one next-state read per event, with no window or probe.
///
/// The alphabet is dense: symbol S = BranchId<<1 | Taken of an in-range
/// branch is column S, symbols of out-of-range ids that occur in candidate
/// steps follow, and the last column stands for every other symbol (it
/// leads back to the root from any state).
template <class EventFn>
std::vector<PathProfile> profilePathsImpl(
    const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
    size_t NumEvents, EventFn EventAt, unsigned MaxPathLen) {
  const size_t NumBranches = CandidatesByBranch.size();
  std::vector<PathProfile> Out(NumBranches);

  // Every branch's distinct usable candidates in SymbolString order. Slots
  // are global; branch B owns [SlotBegin[B], SlotBegin[B + 1]).
  std::vector<SymbolString> Keys;
  std::vector<uint32_t> SlotBegin(NumBranches + 1, 0);
  for (size_t B = 0; B < NumBranches; ++B) {
    SlotBegin[B] = static_cast<uint32_t>(Keys.size());
    for (const BranchPath &P : CandidatesByBranch[B])
      if (!P.Steps.empty() && P.Steps.size() <= MaxPathLen)
        Keys.push_back(encodePathSteps(P));
    std::sort(Keys.begin() + SlotBegin[B], Keys.end());
    Keys.erase(std::unique(Keys.begin() + SlotBegin[B], Keys.end()),
               Keys.end());
  }
  SlotBegin[NumBranches] = static_cast<uint32_t>(Keys.size());

  const uint32_t InRangeSyms = static_cast<uint32_t>(2 * NumBranches);
  std::vector<uint32_t> ForeignSyms;
  for (const SymbolString &Key : Keys)
    for (uint32_t Sym : Key)
      if (Sym >= InRangeSyms)
        ForeignSyms.push_back(Sym);
  std::sort(ForeignSyms.begin(), ForeignSyms.end());
  ForeignSyms.erase(std::unique(ForeignSyms.begin(), ForeignSyms.end()),
                    ForeignSyms.end());
  const uint32_t Alpha =
      InRangeSyms + static_cast<uint32_t>(ForeignSyms.size()) + 1;
  auto ColumnOf = [&](uint32_t Sym) -> uint32_t {
    if (Sym < InRangeSyms)
      return Sym;
    auto It = std::lower_bound(ForeignSyms.begin(), ForeignSyms.end(), Sym);
    if (It != ForeignSyms.end() && *It == Sym)
      return InRangeSyms + static_cast<uint32_t>(It - ForeignSyms.begin());
    return Alpha - 1;
  };

  // Trie of the candidates in forward order. Next[State * Alpha + Column]
  // holds the target state's row offset (state * Alpha); while building,
  // 0 means "no child" since the root is nobody's child.
  std::vector<uint32_t> Next(Alpha, 0);
  std::vector<uint32_t> KeyRow(Keys.size());
  for (size_t Slot = 0; Slot < Keys.size(); ++Slot) {
    uint32_t Row = 0;
    for (uint32_t Sym : Keys[Slot]) {
      size_t Cell = Row + ColumnOf(Sym);
      if (!Next[Cell]) {
        assert(Next.size() + Alpha <= UINT32_MAX && "automaton too large");
        Next[Cell] = static_cast<uint32_t>(Next.size());
        Next.resize(Next.size() + Alpha, 0);
      }
      Row = Next[Cell];
    }
    KeyRow[Slot] = Row;
  }
  const size_t NumStates = Next.size() / Alpha;

  // Match[State * NumBranches + B]: slot of B's longest candidate that is
  // a suffix of the state's string. A state's own terminals win; the rest
  // it inherits from its failure state.
  constexpr uint32_t NoSlot = UINT32_MAX;
  std::vector<uint32_t> Match(NumStates * NumBranches, NoSlot);
  for (size_t B = 0; B < NumBranches; ++B)
    for (uint32_t Slot = SlotBegin[B]; Slot < SlotBegin[B + 1]; ++Slot)
      Match[KeyRow[Slot] / Alpha * NumBranches + B] = Slot;

  // Failure links by BFS; completing each row from its failure state's
  // row (already complete, being shallower) makes Next a goto table.
  std::vector<uint32_t> FailRow(NumStates, 0);
  std::vector<uint32_t> Queue;
  Queue.reserve(NumStates);
  for (uint32_t C = 0; C < Alpha; ++C)
    if (Next[C])
      Queue.push_back(Next[C]);
  for (size_t Q = 0; Q < Queue.size(); ++Q) {
    const uint32_t Row = Queue[Q];
    const uint32_t Fail = FailRow[Row / Alpha];
    uint32_t *Own = &Match[Row / Alpha * NumBranches];
    const uint32_t *Inherited = &Match[Fail / Alpha * NumBranches];
    for (size_t B = 0; B < NumBranches; ++B)
      if (Own[B] == NoSlot)
        Own[B] = Inherited[B];
    for (uint32_t C = 0; C < Alpha; ++C) {
      uint32_t &To = Next[Row + C];
      if (To) {
        FailRow[To / Alpha] = Next[Fail + C];
        Queue.push_back(To);
      } else {
        To = Next[Fail + C];
      }
    }
  }

  // The pass: events of in-range branches are counted per (state,
  // symbol); out-of-range ids only move the automaton.
  std::vector<uint64_t> Counts(Next.size(), 0);
  uint32_t Row = 0;
  for (size_t I = 0; I < NumEvents; ++I) {
    const PathStep E = EventAt(I);
    const uint32_t Sym = encodeStep(E);
    size_t Cell;
    if (static_cast<uint32_t>(E.BranchId) < NumBranches) {
      Cell = Row + Sym;
      ++Counts[Cell];
    } else {
      Cell = Row + ColumnOf(Sym);
    }
    Row = Next[Cell];
  }

  // Fold the counts into each branch's matched slot or unmatched bucket.
  std::vector<DirCounts> PerSlot(Keys.size());
  for (size_t S = 0; S < NumStates; ++S)
    for (size_t B = 0; B < NumBranches; ++B) {
      const uint64_t *C = &Counts[S * Alpha + 2 * B];
      if (!C[0] && !C[1])
        continue;
      uint32_t Slot = Match[S * NumBranches + B];
      DirCounts &D = Slot == NoSlot ? Out[B].Unmatched : PerSlot[Slot];
      D.NotTaken += C[0];
      D.Taken += C[1];
    }
  for (size_t B = 0; B < NumBranches; ++B)
    for (uint32_t Slot = SlotBegin[B]; Slot < SlotBegin[B + 1]; ++Slot)
      if (PerSlot[Slot].total())
        Out[B].PerPath.emplace_back(std::move(Keys[Slot]), PerSlot[Slot]);
  return Out;
}

} // namespace

std::vector<PathProfile> bpcr::profilePaths(
    const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
    const Trace &T, unsigned MaxPathLen) {
  return profilePathsImpl(
      CandidatesByBranch, T.size(),
      [&T](size_t I) {
        return PathStep{T[I].BranchId, T[I].Taken};
      },
      MaxPathLen);
}

std::vector<PathProfile> bpcr::profilePaths(
    const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
    const ColumnarTrace &CT, unsigned MaxPathLen) {
  const int32_t *Ids = CT.ids().data();
  const uint64_t *Dirs = CT.directions().data();
  return profilePathsImpl(
      CandidatesByBranch, CT.size(),
      [Ids, Dirs](size_t I) {
        bool Taken = (Dirs[I >> 6] >> (I & 63)) & 1;
        return PathStep{Ids[I], Taken};
      },
      MaxPathLen);
}

CorrelatedMachine
bpcr::buildCorrelatedMachineFromProfile(int32_t BranchId,
                                        const PathProfile &Profile,
                                        const CorrelatedOptions &Opts) {
  CorrelatedMachine M;
  M.BranchId = BranchId;
  M.MaxPathLen = Opts.MaxPathLen;

  std::vector<ObservedPattern> Patterns;
  for (const auto &[Key, Counts] : Profile.PerPath)
    Patterns.push_back({Key, Counts});
  if (Profile.Unmatched.total() > 0)
    Patterns.push_back({SymbolString(), Profile.Unmatched});

  SelectOptions Sel;
  assert(Opts.MaxStates >= 2 && "need room for a path plus the catch-all");
  Sel.MaxSelected = Opts.MaxStates - 1; // the catch-all takes one state
  Sel.MinLen = 1;
  Sel.MaxLen = Opts.MaxPathLen;
  Sel.Exhaustive = Opts.Exhaustive;
  Sel.NodeBudget = Opts.NodeBudget;

  SuffixSelection Selected = selectSuffixStates(Patterns, {}, Sel);

  for (size_t I = 0; I < Selected.States.size(); ++I) {
    M.Paths.push_back(decodePath(Selected.States[I]));
    M.PathPred.push_back(Selected.StatePred[I]);
  }
  M.DefaultPred = Selected.DefaultPred;
  M.Correct = Selected.Correct;
  M.Total = Selected.Total;
  return M;
}

CorrelatedMachine
bpcr::buildCorrelatedMachine(int32_t BranchId,
                             const std::vector<BranchPath> &CandidatePaths,
                             const Trace &T, const CorrelatedOptions &Opts) {
  std::vector<std::vector<BranchPath>> ByBranch(
      static_cast<size_t>(BranchId) + 1);
  ByBranch[static_cast<size_t>(BranchId)] = CandidatePaths;
  std::vector<PathProfile> Profiles =
      profilePaths(ByBranch, T, Opts.MaxPathLen);
  return buildCorrelatedMachineFromProfile(
      BranchId, Profiles[static_cast<size_t>(BranchId)], Opts);
}

PredictionStats bpcr::evaluateCorrelatedMachine(const CorrelatedMachine &M,
                                                const Trace &T) {
  PredictionStats Stats;
  std::vector<PathStep> Recent;
  for (const BranchEvent &E : T) {
    if (E.BranchId == M.BranchId)
      Stats.record(M.predictFor(Recent) == E.Taken);
    Recent.push_back({E.BranchId, E.Taken});
    if (Recent.size() > M.MaxPathLen)
      Recent.erase(Recent.begin());
  }
  return Stats;
}
