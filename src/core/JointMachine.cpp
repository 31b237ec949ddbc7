//===- core/JointMachine.cpp ----------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/JointMachine.h"

#include "obs/Metrics.h"
#include "obs/TraceSpans.h"
#include "trace/ColumnarTrace.h"

#include <algorithm>
#include <utility>

using namespace bpcr;

namespace {

bool stringLess(const SymbolString &A, const SymbolString &B) {
  if (A.size() != B.size())
    return A.size() < B.size();
  return A < B;
}

SymbolString suffixOf(const SymbolString &S, size_t Len) {
  return SymbolString(S.end() - static_cast<long>(Len), S.end());
}

uint32_t symbolOf(int MemberIdx, bool Taken) {
  return (static_cast<uint32_t>(MemberIdx) << 1) | (Taken ? 1U : 0U);
}

/// Shared loop of the members; false when they do not share one.
bool sharedLoop(const ProgramAnalysis &PA, const std::vector<int32_t> &Members,
                uint32_t &FuncIdx, const Loop *&L) {
  if (Members.empty())
    return false;
  const BranchClass &C0 = PA.classOf(Members[0]);
  if (C0.Kind == BranchKind::NonLoop)
    return false;
  FuncIdx = PA.ref(Members[0]).FuncIdx;
  L = &PA.loopInfoFor(Members[0]).loops()[static_cast<size_t>(C0.LoopIdx)];
  for (int32_t M : Members) {
    const BranchClass &C = PA.classOf(M);
    if (PA.ref(M).FuncIdx != FuncIdx || C.Kind == BranchKind::NonLoop ||
        C.LoopIdx != C0.LoopIdx)
      return false;
  }
  return true;
}

} // namespace

int JointLoopMachine::memberIndex(int32_t OrigId) const {
  auto It = std::lower_bound(Members.begin(), Members.end(), OrigId);
  if (It == Members.end() || *It != OrigId)
    return -1;
  return static_cast<int>(It - Members.begin());
}

unsigned JointLoopMachine::next(unsigned State, int MemberIdx,
                                bool Taken) const {
  size_t MaxLen = States.back().size();
  SymbolString S = States[State];
  S.push_back(symbolOf(MemberIdx, Taken));
  if (S.size() > MaxLen)
    S.erase(S.begin(), S.end() - static_cast<long>(MaxLen));
  for (size_t L = S.size(); L >= 1; --L) {
    SymbolString Probe = suffixOf(S, L);
    auto It =
        std::lower_bound(States.begin(), States.end(), Probe, stringLess);
    if (It != States.end() && *It == Probe)
      return static_cast<unsigned>(It - States.begin());
    if (L == 1)
      break;
  }
  return 0; // the empty state
}

std::vector<uint8_t> JointLoopMachine::reachableStates() const {
  std::vector<uint8_t> Reachable(numStates(), 0);
  std::vector<unsigned> Work{initialState()};
  Reachable[initialState()] = 1;
  while (!Work.empty()) {
    unsigned S = Work.back();
    Work.pop_back();
    for (size_t J = 0; J < Members.size(); ++J)
      for (bool Taken : {false, true}) {
        unsigned N = next(S, static_cast<int>(J), Taken);
        if (!Reachable[N]) {
          Reachable[N] = 1;
          Work.push_back(N);
        }
      }
  }
  return Reachable;
}

std::string JointLoopMachine::describe() const {
  std::string Out = "joint{members=" + std::to_string(Members.size());
  Out += ",states=";
  for (size_t I = 0; I < States.size(); ++I) {
    if (I)
      Out += '|';
    if (States[I].empty())
      Out += "eps";
    for (uint32_t Sym : States[I]) {
      Out += std::to_string(Sym >> 1);
      Out += (Sym & 1) ? 'T' : 'N';
    }
  }
  Out += '}';
  return Out;
}

namespace {

/// Shared global-order pass of profileJointLoop; \p EventAt yields the
/// I-th (id, taken) so both trace layouts share one body. Each distinct
/// history (at most MaxLen decisions) is interned once as a small integer;
/// a flat table caches its transitions, so an event costs two array reads
/// instead of a map lookup on the history string.
template <class EventFn>
JointProfile profileJointLoopImpl(const ProgramAnalysis &PA,
                                  const std::vector<int32_t> &Members,
                                  size_t NumEvents, EventFn EventAt,
                                  unsigned MaxLen) {
  JointProfile Out;
  uint32_t FuncIdx = 0;
  const Loop *L = nullptr;
  if (!sharedLoop(PA, Members, FuncIdx, L))
    return Out;

  std::vector<int32_t> Sorted = Members;
  std::sort(Sorted.begin(), Sorted.end());
  const size_t NumMembers = Sorted.size();
  const size_t NumSymbols = 2 * NumMembers;

  // Per branch id: its member index, InLoop for an in-loop non-member (no
  // transition, no reset) or Outside (the history resets).
  constexpr int32_t InLoop = -1, Outside = -2;
  std::vector<int32_t> Role(PA.numBranches(), Outside);
  for (uint32_t Id = 0; Id < PA.numBranches(); ++Id) {
    const BranchRef &R = PA.ref(static_cast<int32_t>(Id));
    if (R.FuncIdx != FuncIdx || !L->contains(R.BlockIdx))
      continue;
    auto It = std::lower_bound(Sorted.begin(), Sorted.end(),
                               static_cast<int32_t>(Id));
    Role[Id] = (It != Sorted.end() && *It == static_cast<int32_t>(Id))
                   ? static_cast<int32_t>(It - Sorted.begin())
                   : InLoop;
  }

  constexpr uint32_t Unset = UINT32_MAX;
  std::vector<SymbolString> Histories{SymbolString()};
  std::map<SymbolString, uint32_t> HistoryIds{{SymbolString(), 0}};
  std::vector<uint32_t> Next(NumSymbols, Unset);
  std::vector<DirCounts> Counts(NumMembers);
  uint32_t H = 0;
  for (size_t I = 0; I < NumEvents; ++I) {
    const auto [Id, Taken] = EventAt(I);
    int32_t MI = (Id >= 0 && static_cast<size_t>(Id) < Role.size())
                     ? Role[static_cast<size_t>(Id)]
                     : Outside;
    if (MI == Outside) {
      H = 0;
      continue;
    }
    if (MI == InLoop)
      continue;
    Counts[H * NumMembers + static_cast<size_t>(MI)].record(Taken);
    ++Out.Executions;
    size_t Edge = H * NumSymbols + symbolOf(MI, Taken);
    if (Next[Edge] == Unset) {
      SymbolString S = Histories[H];
      S.push_back(symbolOf(MI, Taken));
      if (S.size() > MaxLen)
        S.erase(S.begin());
      auto [It, Inserted] =
          HistoryIds.emplace(S, static_cast<uint32_t>(Histories.size()));
      if (Inserted) {
        Histories.push_back(std::move(S));
        Next.resize(Histories.size() * NumSymbols, Unset);
        Counts.resize(Histories.size() * NumMembers);
      }
      Next[Edge] = It->second;
    }
    H = Next[Edge];
  }

  // A history enters the profile once a member executed right after it.
  for (const auto &[Syms, Id] : HistoryIds) {
    auto Begin = Counts.begin() + static_cast<long>(Id * NumMembers);
    if (std::any_of(Begin, Begin + static_cast<long>(NumMembers),
                    [](const DirCounts &C) { return C.total() > 0; }))
      Out.PerPattern.emplace(Syms, std::vector<DirCounts>(
                                       Begin, Begin + static_cast<long>(
                                                          NumMembers)));
  }
  return Out;
}

} // namespace

JointProfile bpcr::profileJointLoop(const ProgramAnalysis &PA,
                                    const std::vector<int32_t> &Members,
                                    const Trace &T, unsigned MaxLen) {
  return profileJointLoopImpl(
      PA, Members, T.size(),
      [&T](size_t I) {
        return std::pair<int32_t, bool>(T[I].BranchId, T[I].Taken);
      },
      MaxLen);
}

JointProfile bpcr::profileJointLoop(const ProgramAnalysis &PA,
                                    const std::vector<int32_t> &Members,
                                    const ColumnarTrace &CT,
                                    unsigned MaxLen) {
  const int32_t *Ids = CT.ids().data();
  const uint64_t *Dirs = CT.directions().data();
  return profileJointLoopImpl(
      PA, Members, CT.size(),
      [Ids, Dirs](size_t I) {
        bool Taken = (Dirs[I >> 6] >> (I & 63)) & 1;
        return std::pair<int32_t, bool>(Ids[I], Taken);
      },
      MaxLen);
}

JointLoopMachine
bpcr::buildJointLoopMachine(const std::vector<int32_t> &Members,
                            const JointProfile &Profile,
                            const JointOptions &Opts) {
  Span S("search.joint.build", "search");
  JointLoopMachine M;
  M.Members = Members;
  std::sort(M.Members.begin(), M.Members.end());

  // One counts channel per member; the empty state is forced and takes
  // one of the MaxStates.
  ChannelPatterns Table;
  Table.Channels = static_cast<unsigned>(M.Members.size());
  for (const auto &[Syms, PerMember] : Profile.PerPattern) {
    Table.Syms.push_back(Syms);
    for (size_t J = 0; J < M.Members.size(); ++J)
      Table.Counts.push_back(J < PerMember.size() ? PerMember[J]
                                                  : DirCounts());
  }
  SelectOptions Sel;
  Sel.MaxSelected = Opts.MaxStates;
  Sel.MinLen = 1;
  Sel.MaxLen = Opts.MaxLen;
  Sel.Exhaustive = Opts.Exhaustive;
  Sel.NodeBudget = Opts.NodeBudget;
  // Closure keeps long states reachable through their prefixes (see
  // SelectOptions::SubstringClosure).
  Sel.SubstringClosure = true;
  StateSearch Found = searchSuffixStates(Table, {SymbolString()}, Sel);
  M.States = std::move(Found.States); // sorted; the empty state is index 0
  M.BudgetExhausted = Found.BudgetExhausted;
  M.Nodes = Found.Nodes;
  S.arg("members", static_cast<uint64_t>(M.Members.size()));
  S.arg("patterns", static_cast<uint64_t>(Table.Syms.size()));
  S.arg("max_states", static_cast<uint64_t>(Opts.MaxStates));
  S.arg("nodes", M.Nodes);
  if (Registry::global().enabled()) {
    Registry &Obs = Registry::global();
    Obs.counter("search.joint.builds").inc();
    Obs.counter("search.joint.nodes").add(M.Nodes);
    Obs.counter("search.joint.budget_exhausted").add(M.BudgetExhausted);
  }

  // Fit per-(state, member) predictions by longest-suffix assignment.
  std::vector<std::vector<DirCounts>> Counts(
      M.States.size(), std::vector<DirCounts>(M.Members.size()));
  auto Assign = [&M](const SymbolString &Syms) -> size_t {
    for (size_t L = Syms.size(); L >= 1; --L) {
      SymbolString Probe = suffixOf(Syms, L);
      auto It = std::lower_bound(M.States.begin(), M.States.end(), Probe,
                                 stringLess);
      if (It != M.States.end() && *It == Probe)
        return static_cast<size_t>(It - M.States.begin());
      if (L == 1)
        break;
    }
    return 0;
  };
  for (const auto &[Syms, PerMember] : Profile.PerPattern) {
    size_t S = Syms.empty() ? 0 : Assign(Syms);
    for (size_t J = 0; J < PerMember.size() && J < M.Members.size(); ++J) {
      Counts[S][J].Taken += PerMember[J].Taken;
      Counts[S][J].NotTaken += PerMember[J].NotTaken;
    }
  }

  M.Predictions.assign(M.States.size(),
                       std::vector<uint8_t>(M.Members.size(), 1));
  M.Correct = 0;
  M.Total = 0;
  for (size_t S = 0; S < M.States.size(); ++S)
    for (size_t J = 0; J < M.Members.size(); ++J) {
      M.Predictions[S][J] = Counts[S][J].majorityTaken() ? 1 : 0;
      M.Correct += std::max(Counts[S][J].Taken, Counts[S][J].NotTaken);
      M.Total += Counts[S][J].total();
    }
  return M;
}

PredictionStats bpcr::evaluateJointMachine(const JointLoopMachine &M,
                                           const ProgramAnalysis &PA,
                                           const Trace &T) {
  PredictionStats Stats;
  if (M.Members.empty())
    return Stats;
  uint32_t FuncIdx = 0;
  const Loop *L = nullptr;
  if (!sharedLoop(PA, M.Members, FuncIdx, L))
    return Stats;

  unsigned State = M.initialState();
  for (const BranchEvent &E : T) {
    const BranchRef &R = PA.ref(E.BranchId);
    bool Inside = R.FuncIdx == FuncIdx && L->contains(R.BlockIdx);
    if (!Inside) {
      State = M.initialState();
      continue;
    }
    int MI = M.memberIndex(E.BranchId);
    if (MI < 0)
      continue;
    Stats.record(M.predictTaken(State, MI) == E.Taken);
    State = M.next(State, MI, E.Taken);
  }
  return Stats;
}

ReplicationStats bpcr::applyJointLoopReplication(
    Function &F, const std::vector<uint32_t> &LoopBlocks, uint32_t Header,
    const JointLoopMachine &M) {
  ReplicationStats Out;
  (void)Header;

  unsigned NumStates = M.numStates();
  std::vector<uint8_t> Reachable = M.reachableStates();

  auto InLoop = [&LoopBlocks](uint32_t B) {
    return std::binary_search(LoopBlocks.begin(), LoopBlocks.end(), B);
  };
  auto LoopPos = [&LoopBlocks](uint32_t B) {
    return static_cast<size_t>(
        std::lower_bound(LoopBlocks.begin(), LoopBlocks.end(), B) -
        LoopBlocks.begin());
  };

  unsigned Init = M.initialState();
  std::vector<std::vector<uint32_t>> CopyIdx(
      NumStates, std::vector<uint32_t>(LoopBlocks.size(), UINT32_MAX));
  for (size_t P = 0; P < LoopBlocks.size(); ++P)
    CopyIdx[Init][P] = LoopBlocks[P];
  for (unsigned S = 0; S < NumStates; ++S) {
    if (S == Init || !Reachable[S])
      continue;
    for (size_t P = 0; P < LoopBlocks.size(); ++P) {
      BasicBlock Clone = F.Blocks[LoopBlocks[P]];
      Clone.Name += "@j" + std::to_string(S);
      CopyIdx[S][P] = static_cast<uint32_t>(F.Blocks.size());
      F.Blocks.push_back(std::move(Clone));
      ++Out.BlocksAdded;
    }
  }

  for (unsigned S = 0; S < NumStates; ++S) {
    if (!Reachable[S])
      continue;
    for (size_t P = 0; P < LoopBlocks.size(); ++P) {
      BasicBlock &BB = F.Blocks[CopyIdx[S][P]];
      if (!BB.isComplete())
        continue;
      Instruction &T = BB.terminator();

      auto Retarget = [&](uint32_t Old, unsigned NextState) {
        if (!InLoop(Old))
          return Old;
        return CopyIdx[NextState][LoopPos(Old)];
      };

      if (T.Op == Opcode::Jmp) {
        T.TrueTarget = Retarget(T.TrueTarget, S);
        continue;
      }
      if (!T.isConditionalBranch())
        continue;

      int MI = M.memberIndex(T.OrigBranchId);
      if (MI >= 0) {
        T.TrueTarget = Retarget(T.TrueTarget, M.next(S, MI, true));
        T.FalseTarget = Retarget(T.FalseTarget, M.next(S, MI, false));
        T.Predicted = M.predictTaken(S, MI) ? Prediction::Taken
                                            : Prediction::NotTaken;
      } else {
        T.TrueTarget = Retarget(T.TrueTarget, S);
        T.FalseTarget = Retarget(T.FalseTarget, S);
      }
    }
  }

  for (uint8_t R : Reachable)
    Out.StatesMaterialized += R;
  Out.BlocksPruned = pruneUnreachableBlocks(F);
  Out.Applied = true;
  return Out;
}
