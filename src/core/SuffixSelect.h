//===- core/SuffixSelect.h - Optimal suffix-state selection -----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's machine construction problem in its general form: given
/// observed history strings with taken/not-taken counts, choose at most N
/// suffix states so that assigning every observed string to its longest
/// selected suffix and predicting each state's majority direction maximizes
/// correct predictions ("we make an exhaustive search in the pattern table
/// to find the best state machine", sec 4.1).
///
/// Three instantiations share this engine:
///  - intra-loop machines: symbols are branch outcomes (0/1), the forced
///    base is {"0","1"} (or all four 2-bit strings, paper figure 3);
///  - correlated machines: symbols are (branch, direction) path steps and
///    the implicit empty suffix is the paper's "state [that] covers the
///    case where the control flow matches none of the paths";
///  - joint loop machines (core/JointMachine.h): symbols are (member,
///    direction) decisions and every pattern carries one counts channel per
///    member branch; a state scores the sum of its per-member majorities.
///
/// The search is exact branch-and-bound (the assignment score is monotone
/// in the state set, so the score of "current set plus every remaining
/// candidate" is an admissible bound); a node budget degrades it gracefully
/// to the greedy result for pathological tables.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_CORE_SUFFIXSELECT_H
#define BPCR_CORE_SUFFIXSELECT_H

#include "predict/SemiStaticPredictors.h" // DirCounts

#include <cstdint>
#include <vector>

namespace bpcr {

/// A history string; symbols are stored oldest first, newest last.
using SymbolString = std::vector<uint32_t>;

/// One observed full-length history with its outcome counts.
struct ObservedPattern {
  SymbolString Syms;
  DirCounts Counts;
};

/// Search configuration.
struct SelectOptions {
  /// Maximum number of selected (non-empty) states, forced states included.
  unsigned MaxSelected = 4;
  /// Longest suffix considered as a state.
  unsigned MaxLen = 9;
  /// Shortest selectable suffix; states of this length need no parent.
  unsigned MinLen = 1;
  /// Exact search; false uses greedy forward selection only.
  bool Exhaustive = true;
  /// Abort exact search after this many nodes and return the best found.
  uint64_t NodeBudget = 2'000'000;
  /// Require closure under dropping the NEWEST symbol as well (full
  /// contiguous-substring closure). For machines that evolve by their own
  /// transitions (the intra-loop suffix machines) this is what makes the
  /// assignment score equal machine simulation EXACTLY: with only
  /// drop-oldest closure, a machine can contain a long state it never
  /// reaches because the intermediate prefix is missing. Correlated path
  /// machines match each execution independently and do not need it.
  bool SubstringClosure = false;
};

/// Result of a selection.
struct SuffixSelection {
  /// Selected states (forced ones included), sorted by (length, content).
  std::vector<SymbolString> States;
  /// Majority prediction of each state (1 = taken), aligned with States.
  std::vector<uint8_t> StatePred;
  /// Prediction of the implicit empty state for unmatched histories.
  uint8_t DefaultPred = 1;
  /// Counts assigned to each state / to the default state.
  std::vector<DirCounts> StateCounts;
  DirCounts DefaultCounts;
  /// Assignment score: correctly predicted executions out of Total.
  uint64_t Correct = 0;
  uint64_t Total = 0;
  /// True when the exact search ran out of node budget (result is the best
  /// seen, typically the greedy solution or better).
  bool BudgetExhausted = false;
  /// Branch-and-bound nodes visited (the node that exhausts the budget
  /// included); 0 for a greedy-only search.
  uint64_t Nodes = 0;
};

/// Observed histories that carry C count channels each: one channel for a
/// single-branch machine, one per member branch for a joint loop machine.
struct ChannelPatterns {
  unsigned Channels = 1;
  std::vector<SymbolString> Syms;
  /// Syms.size() * Channels counts, pattern-major.
  std::vector<DirCounts> Counts;
};

/// Raw outcome of the state search.
struct StateSearch {
  /// Best state set found, forced states included, sorted by (length,
  /// content).
  std::vector<SymbolString> States;
  bool BudgetExhausted = false;
  /// Branch-and-bound nodes visited (the node that exhausts the budget
  /// included); 0 for a greedy-only search.
  uint64_t Nodes = 0;
};

/// The branch-and-bound engine behind selectSuffixStates and
/// buildJointLoopMachine. A set's score is the sum, over its states and the
/// implicit empty default state, of every channel's majority count of the
/// patterns assigned to the state by longest selected suffix. Throws
/// std::logic_error if substring closure leaves a candidate without an
/// interned parent (closure makes every parent a candidate, so this would
/// be an engine defect).
StateSearch searchSuffixStates(const ChannelPatterns &Patterns,
                               const std::vector<SymbolString> &Forced,
                               const SelectOptions &Opts);

/// Selects the best suffix-state set.
///
/// \param Patterns observed full histories with counts; an empty-Syms
///        pattern contributes to the default state.
/// \param Forced states that must be in every considered set (e.g. the
///        catch-all states "0" and "1"); counted against MaxSelected.
/// \param Opts search parameters. Suffix closure is enforced: a state of
///        length > MinLen requires its one-shorter suffix to be selected or
///        forced, which keeps machine simulation equal to the assignment
///        used for scoring.
SuffixSelection selectSuffixStates(const std::vector<ObservedPattern> &Patterns,
                                   const std::vector<SymbolString> &Forced,
                                   const SelectOptions &Opts);

/// Scores a fixed state set by longest-suffix assignment (used by tests and
/// by the ablation bench).
SuffixSelection scoreStateSet(const std::vector<ObservedPattern> &Patterns,
                              const std::vector<SymbolString> &States);

} // namespace bpcr

#endif // BPCR_CORE_SUFFIXSELECT_H
