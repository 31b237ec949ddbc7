//===- interp/Interpreter.h - IR execution engine ---------------*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a module and streams branch events to a TraceSink. This replaces
/// the paper's assembly-level instrumentation of native binaries: the
/// evaluation consumes only the branch event stream, which the interpreter
/// produces exactly.
///
/// Each call decodes the module into a flat array of compact ops (block
/// targets resolved to op indexes, operand kinds folded into the op code,
/// a compare and the branch testing its result fused into one op, one
/// register stack shared by all frames) and runs a single threaded dispatch
/// loop over it. Nothing is cached across calls: the pipeline annotates and
/// replicates modules between runs, and decoding costs far less than a run.
/// The module need not be verified; an out-of-range register, callee or
/// argument count is reported as an error before anything executes.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_INTERP_INTERPRETER_H
#define BPCR_INTERP_INTERPRETER_H

#include "interp/InstrListener.h"
#include "interp/TraceSink.h"
#include "ir/Module.h"

#include <cstdint>
#include <string>
#include <vector>

namespace bpcr {

/// Execution limits. The branch-event cap mirrors the paper: "We traced the
/// whole program up to a maximum of [1] million branch instructions."
struct ExecOptions {
  uint64_t MaxInstructions = 500'000'000;
  uint64_t MaxBranchEvents = UINT64_MAX;
  uint32_t MaxCallDepth = 4096;
  /// Arguments passed to the entry function.
  std::vector<int64_t> EntryArgs;
  /// Optional per-instruction hook (instruction-cache simulation); slows
  /// execution down noticeably when set.
  InstrListener *Listener = nullptr;
};

/// Outcome of one execution.
struct ExecResult {
  /// False on a runtime error (bad memory access, fuel exhaustion, ...) or
  /// a malformed module (nothing executed then).
  bool Ok = false;
  std::string Error;
  /// Entry function return value (meaningful when Ok).
  int64_t ReturnValue = 0;
  uint64_t InstructionsExecuted = 0;
  uint64_t BranchEvents = 0;
  /// True when execution stopped early because MaxBranchEvents was reached;
  /// the run still counts as Ok (the paper truncates traces the same way).
  bool HitBranchLimit = false;
  /// Final data memory image (for output comparison in tests).
  std::vector<int64_t> Memory;
};

/// Runs \p M from its entry function.
///
/// \param Sink receives every conditional branch outcome; may be null.
/// \returns the execution outcome; on error, Error describes the failure and
///          the partially executed state is still reported.
ExecResult execute(const Module &M, TraceSink *Sink = nullptr,
                   const ExecOptions &Opts = ExecOptions());

} // namespace bpcr

#endif // BPCR_INTERP_INTERPRETER_H
