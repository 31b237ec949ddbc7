//===- tests/PathProfileOracle.h - Map-probing path profile oracle --------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correlated path-profile pass the Aho-Corasick automaton in
/// core/CorrelatedMachine.cpp replaced, kept verbatim as an equality
/// oracle. For every event of a branch with candidates it copies the last
/// L window symbols into a key for each L from the longest candidate down
/// to 1, probes a per-branch std::map, and on a hit counts the key in a
/// second map; the window shifts by erasing its first symbol. Its
/// PathProfile fields (PerPath in SymbolString order, observed paths only,
/// and Unmatched) are the contract the automaton must reproduce bit for
/// bit. It must not run with MaxPathLen 0: the window shift then erases
/// from an empty vector.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_TESTS_PATHPROFILEORACLE_H
#define BPCR_TESTS_PATHPROFILEORACLE_H

#include "core/CorrelatedMachine.h"

#include <algorithm>
#include <map>
#include <vector>

namespace bpcr::oracle {

/// Packs a decision step into one selection symbol.
inline uint32_t encodeStep(const PathStep &S) {
  return (static_cast<uint32_t>(S.BranchId) << 1) | (S.Taken ? 1U : 0U);
}

/// Shared global-order pass of profilePaths. \p EventAt yields the I-th
/// event (id, taken) so the legacy vector-of-structs trace and the
/// columnar trace share one body and stay bit-identical.
template <class EventFn>
std::vector<PathProfile> profilePathsImpl(
    const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
    size_t NumEvents, EventFn EventAt, unsigned MaxPathLen) {
  size_t NumBranches = CandidatesByBranch.size();
  std::vector<PathProfile> Out(NumBranches);

  // Candidate lookup per branch; remember the longest candidate to bound
  // the suffix probing.
  std::vector<std::map<SymbolString, size_t>> Lookup(NumBranches);
  std::vector<size_t> Longest(NumBranches, 0);
  std::vector<std::map<SymbolString, DirCounts>> Accum(NumBranches);
  for (size_t B = 0; B < NumBranches; ++B)
    for (const BranchPath &P : CandidatesByBranch[B]) {
      if (P.Steps.empty() || P.Steps.size() > MaxPathLen)
        continue;
      Lookup[B].emplace(encodePathSteps(P), 0);
      Longest[B] = std::max(Longest[B], P.Steps.size());
    }

  // One pass; the window holds the last MaxPathLen encoded events. Both
  // the window and the probe key are reused across the whole trace — this
  // loop runs once per branch event and must not allocate per event.
  SymbolString Window;
  Window.reserve(MaxPathLen + 1);
  SymbolString Key;
  Key.reserve(MaxPathLen);
  for (size_t I = 0; I < NumEvents; ++I) {
    const PathStep E = EventAt(I);
    size_t B = static_cast<size_t>(E.BranchId);
    if (B < NumBranches && !Lookup[B].empty()) {
      bool Matched = false;
      for (size_t L = std::min(Window.size(), Longest[B]); L >= 1; --L) {
        Key.assign(Window.end() - static_cast<long>(L), Window.end());
        if (Lookup[B].count(Key)) {
          Accum[B][Key].record(E.Taken);
          Matched = true;
          break;
        }
        if (L == 1)
          break;
      }
      if (!Matched)
        Out[B].Unmatched.record(E.Taken);
    } else if (B < NumBranches) {
      Out[B].Unmatched.record(E.Taken);
    }
    if (Window.size() == MaxPathLen)
      Window.erase(Window.begin());
    Window.push_back(encodeStep(E));
  }

  for (size_t B = 0; B < NumBranches; ++B) {
    Out[B].PerPath.reserve(Accum[B].size());
    for (auto &[Path, Counts] : Accum[B])
      Out[B].PerPath.emplace_back(Path, Counts);
  }
  return Out;
}

inline std::vector<PathProfile>
profilePaths(const std::vector<std::vector<BranchPath>> &CandidatesByBranch,
             const Trace &T, unsigned MaxPathLen) {
  return profilePathsImpl(
      CandidatesByBranch, T.size(),
      [&T](size_t I) {
        return PathStep{T[I].BranchId, T[I].Taken};
      },
      MaxPathLen);
}

} // namespace bpcr::oracle

#endif // BPCR_TESTS_PATHPROFILEORACLE_H
