//===- tests/test_interp_equivalence.cpp - Decoded loop vs oracle ---------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The pre-decoded interpreter must reproduce the tree-walking loop it
// replaced (tests/InterpOracle.h) bit for bit: every ExecResult field, the
// branch event stream by Instruction identity and direction, and the
// listener's (function, block, instruction) sequence. Covered: every
// workload at three caps on the original, profile-annotated and replicated
// module; random programs with branches, loops, calls and memory traffic;
// and every error path, including each instruction budget across a fused
// compare + branch.
//
//===----------------------------------------------------------------------===//

#include "InterpOracle.h"

#include "core/Pipeline.h"
#include "core/Replication.h"
#include "interp/Interpreter.h"
#include "support/Rng.h"
#include "trace/TraceStats.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

using namespace bpcr;

namespace {

/// Every branch event by instruction identity and direction.
class RecordingSink : public TraceSink {
public:
  void onBranch(const Instruction &Br, bool Taken) override {
    Events.emplace_back(&Br, Taken);
  }
  std::vector<std::pair<const Instruction *, bool>> Events;
};

/// The listener sequence as a count plus an order-sensitive hash (a
/// workload run is millions of instructions; storing them would not fit a
/// sanitizer job's memory comfortably).
class HashingListener : public InstrListener {
public:
  void onInstruction(uint32_t F, uint32_t B, uint32_t I) override {
    uint64_t Key = (static_cast<uint64_t>(F) << 42) ^
                   (static_cast<uint64_t>(B) << 21) ^ I;
    Hash = mix(Hash ^ Key);
    ++Count;
  }
  static uint64_t mix(uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  }
  uint64_t Hash = 0;
  uint64_t Count = 0;
};

struct Observed {
  ExecResult R;
  std::vector<std::pair<const Instruction *, bool>> Events;
  uint64_t ListenHash = 0, ListenCount = 0;
};

enum class Hooks { None, Sink, SinkAndListener };

template <class ExecFn>
Observed observe(ExecFn Exec, const Module &M, ExecOptions Opts, Hooks H) {
  Observed O;
  RecordingSink Sink;
  HashingListener Listener;
  if (H == Hooks::SinkAndListener)
    Opts.Listener = &Listener;
  O.R = Exec(M, H == Hooks::None ? nullptr : &Sink, Opts);
  O.Events = std::move(Sink.Events);
  O.ListenHash = Listener.Hash;
  O.ListenCount = Listener.Count;
  return O;
}

/// Runs the oracle and the decoded loop; \returns false (after reporting)
/// on the first difference.
bool expectSame(const Module &M, const ExecOptions &Opts, Hooks H,
                const std::string &What) {
  Observed Want = observe(
      [](const Module &Mod, TraceSink *S, const ExecOptions &O) {
        return oracle::execute(Mod, S, O);
      },
      M, Opts, H);
  Observed Got = observe(
      [](const Module &Mod, TraceSink *S, const ExecOptions &O) {
        return execute(Mod, S, O);
      },
      M, Opts, H);
  SCOPED_TRACE(What + " hooks=" + std::to_string(static_cast<int>(H)));
  EXPECT_EQ(Got.R.Ok, Want.R.Ok);
  EXPECT_EQ(Got.R.Error, Want.R.Error);
  EXPECT_EQ(Got.R.ReturnValue, Want.R.ReturnValue);
  EXPECT_EQ(Got.R.InstructionsExecuted, Want.R.InstructionsExecuted);
  EXPECT_EQ(Got.R.BranchEvents, Want.R.BranchEvents);
  EXPECT_EQ(Got.R.HitBranchLimit, Want.R.HitBranchLimit);
  EXPECT_TRUE(Got.R.Memory == Want.R.Memory) << "final memory differs";
  EXPECT_EQ(Got.Events.size(), Want.Events.size());
  EXPECT_TRUE(Got.Events == Want.Events) << "branch event stream differs";
  EXPECT_EQ(Got.ListenCount, Want.ListenCount);
  EXPECT_EQ(Got.ListenHash, Want.ListenHash) << "listener sequence differs";
  return !::testing::Test::HasFailure();
}

void expectSameAllHooks(const Module &M, const ExecOptions &Opts,
                        const std::string &What) {
  for (Hooks H : {Hooks::None, Hooks::Sink, Hooks::SinkAndListener})
    expectSame(M, Opts, H, What);
}

Operand R(Reg X) { return Operand::reg(X); }
Operand K(int64_t V) { return Operand::imm(V); }

Instruction inst(Opcode Op, Reg Dst, Operand A, Operand B = Operand::none(),
                 Operand C = Operand::none()) {
  Instruction I;
  I.Op = Op;
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  I.C = C;
  return I;
}

Instruction br(Operand Cond, uint32_t T, uint32_t F) {
  Instruction I = inst(Opcode::Br, 0, Cond);
  I.TrueTarget = T;
  I.FalseTarget = F;
  return I;
}

Instruction jmp(uint32_t T) {
  Instruction I = inst(Opcode::Jmp, 0, Operand::none());
  I.TrueTarget = T;
  return I;
}

/// A one-function module from raw blocks.
Module rawModule(std::vector<std::vector<Instruction>> Blocks,
                 uint32_t NumRegs = 4, uint64_t MemWords = 8) {
  Module M;
  M.MemWords = MemWords;
  uint32_t F = M.addFunction("main", 0);
  M.Functions[F].NumRegs = NumRegs;
  for (std::vector<Instruction> &Insts : Blocks) {
    BasicBlock BB;
    BB.Insts = std::move(Insts);
    M.Functions[F].Blocks.push_back(std::move(BB));
  }
  M.assignBranchIds();
  return M;
}

/// count = 3; loop: count = count - 1; c = count > 0; br c loop, exit;
/// exit: ret count. Every loop branch is a fusable compare + branch.
Module countdown() {
  return rawModule({
      {inst(Opcode::Mov, 0, K(3)), jmp(1)},
      {inst(Opcode::Sub, 0, R(0), K(1)), inst(Opcode::CmpGt, 1, R(0), K(0)),
       br(R(1), 1, 2)},
      {inst(Opcode::Ret, 0, R(0))},
  });
}

} // namespace

// -- Workloads ---------------------------------------------------------------

class InterpEquivalenceWorkload
    : public ::testing::TestWithParam<const char *> {};

TEST_P(InterpEquivalenceWorkload, OriginalAnnotatedAndReplicatedAtEveryCap) {
  const Workload *W = nullptr;
  for (const Workload &X : allWorkloads())
    if (std::string(X.Name) == GetParam())
      W = &X;
  ASSERT_NE(W, nullptr);

  Module Original;
  ColumnarTrace CT = traceWorkloadColumnar(*W, 1, Original, 50'000);
  Module Annotated = Original;
  TraceStats Stats(static_cast<uint32_t>(Original.conditionalBranchCount()));
  Stats.addTrace(CT);
  annotateProfilePredictions(Annotated, Stats);
  PipelineOptions PO;
  PO.MaxSizeFactor = 2.0;
  PO.Strategy.Jobs = 1;
  Module Replicated = replicateModule(Original, CT, PO).Transformed;

  const std::pair<const char *, const Module *> Variants[] = {
      {"original", &Original},
      {"annotated", &Annotated},
      {"replicated", &Replicated}};
  for (const auto &[Name, M] : Variants)
    for (uint64_t Cap : {uint64_t{50'000}, uint64_t{1'000'000}, UINT64_MAX}) {
      ExecOptions Opts;
      Opts.MaxBranchEvents = Cap;
      expectSameAllHooks(*M, Opts,
                         std::string(W->Name) + "/" + Name + " cap " +
                             std::to_string(Cap));
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, InterpEquivalenceWorkload,
                         ::testing::Values("abalone", "c-compiler", "compress",
                                           "ghostview", "predict", "prolog",
                                           "scheduler", "doduc"),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

// -- Random programs ---------------------------------------------------------

namespace {

/// A random module of 1-3 functions with branches (fusable compare +
/// branch pairs, branches on other registers and on immediates), forward
/// and backward edges (so loops), calls (recursion included), loads and
/// stores. Operand forms cover register, immediate and absent. Addresses
/// are masked to [0, 64) plus a small base, so some accesses fall outside
/// the 48-word memory while no address computation can overflow.
Module randomProgram(Rng &G) {
  static const Opcode Binary[] = {
      Opcode::Add,   Opcode::Sub,   Opcode::Mul,   Opcode::Div,
      Opcode::Rem,   Opcode::And,   Opcode::Or,    Opcode::Xor,
      Opcode::Shl,   Opcode::Shr,   Opcode::CmpEq, Opcode::CmpNe,
      Opcode::CmpLt, Opcode::CmpLe, Opcode::CmpGt, Opcode::CmpGe,
  };
  static const int64_t Interesting[] = {
      0, 1, -1, 2, 7, 63, 64, -64, std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max()};

  Module M;
  M.MemWords = 48;
  for (int I = 0; I < 48; ++I)
    M.InitialMemory.push_back(G.range(-100, 100));
  uint32_t NumFuncs = 1 + static_cast<uint32_t>(G.below(3));
  for (uint32_t F = 0; F < NumFuncs; ++F) {
    uint32_t Params = static_cast<uint32_t>(G.below(3));
    uint32_t Idx = M.addFunction("f" + std::to_string(F), Params);
    M.Functions[Idx].NumRegs = Params + 3 + static_cast<uint32_t>(G.below(4));
  }

  for (uint32_t F = 0; F < NumFuncs; ++F) {
    Function &Fn = M.Functions[F];
    uint32_t NumRegs = Fn.NumRegs;
    auto AnyReg = [&] { return static_cast<Reg>(G.below(NumRegs)); };
    auto Imm = [&] {
      return G.chance(1, 3) ? Interesting[G.below(std::size(Interesting))]
                            : G.range(-20, 20);
    };
    auto Src = [&] {
      uint64_t K = G.below(10);
      if (K < 6)
        return R(AnyReg());
      if (K < 9)
        return Operand::imm(Imm());
      return Operand::none();
    };
    uint32_t NumBlocks = 2 + static_cast<uint32_t>(G.below(6));
    auto Target = [&](uint32_t From) {
      if (From + 1 < NumBlocks && G.chance(3, 4))
        return From + 1 + static_cast<uint32_t>(G.below(NumBlocks - From - 1));
      return static_cast<uint32_t>(G.below(NumBlocks));
    };

    Fn.Blocks.resize(NumBlocks);
    for (uint32_t B = 0; B < NumBlocks; ++B) {
      std::vector<Instruction> &Insts = Fn.Blocks[B].Insts;
      if (B == 0)
        for (Reg X = static_cast<Reg>(Fn.NumParams); X < NumRegs; ++X)
          if (G.chance(1, 2))
            Insts.push_back(inst(Opcode::Mov, X, K(Imm())));
      uint64_t Body = G.below(6);
      for (uint64_t S = 0; S < Body; ++S) {
        switch (G.below(6)) {
        case 0:
        case 1:
        case 2:
          Insts.push_back(inst(Binary[G.below(std::size(Binary))], AnyReg(),
                               Src(), Src()));
          break;
        case 3:
          Insts.push_back(inst(Opcode::Mov, AnyReg(), Src()));
          break;
        case 4: {
          // t = r & 63; then a load or store at base + t.
          Reg T = AnyReg();
          Insts.push_back(inst(Opcode::And, T, R(AnyReg()), K(63)));
          Operand Base = K(G.range(-3, 20));
          bool Swap = G.chance(1, 2);
          Operand A = Swap ? R(T) : Base, Off = Swap ? Base : R(T);
          if (G.chance(1, 4))
            Off = R(T), A = R(T);
          if (G.chance(1, 2))
            Insts.push_back(inst(Opcode::Load, AnyReg(), A, Off));
          else
            Insts.push_back(inst(Opcode::Store, 0, A, Off, Src()));
          break;
        }
        default: {
          // Mostly calls down the function list; sometimes any function,
          // so recursion (and the depth limit) shows up too.
          uint32_t Callee = static_cast<uint32_t>(G.below(NumFuncs));
          if (F + 1 < NumFuncs && G.chance(3, 4))
            Callee = F + 1 + static_cast<uint32_t>(G.below(NumFuncs - F - 1));
          Instruction I = inst(Opcode::Call, AnyReg(), Operand::none());
          I.Callee = Callee;
          uint64_t NumArgs = G.below(M.Functions[Callee].NumParams + 1);
          for (uint64_t A = 0; A < NumArgs; ++A)
            I.Args.push_back(G.chance(2, 3) ? R(AnyReg()) : K(Imm()));
          Insts.push_back(I);
          break;
        }
        }
      }
      if (B + 1 == NumBlocks) {
        Insts.push_back(inst(Opcode::Ret, 0, Src()));
        continue;
      }
      switch (G.below(6)) {
      case 0:
      case 1: {
        Reg C = AnyReg();
        Opcode Cmp = Binary[10 + G.below(6)];
        Insts.push_back(inst(Cmp, C, Src(), Src()));
        Insts.push_back(br(R(C), Target(B), Target(B)));
        break;
      }
      case 2:
        Insts.push_back(br(R(AnyReg()), Target(B), Target(B)));
        break;
      case 3:
        Insts.push_back(br(K(G.range(-1, 1)), Target(B), Target(B)));
        break;
      case 4:
        Insts.push_back(jmp(Target(B)));
        break;
      default:
        Insts.push_back(inst(Opcode::Ret, 0, Src()));
        break;
      }
    }
  }
  M.EntryFunction = static_cast<uint32_t>(G.below(NumFuncs));
  M.assignBranchIds();
  return M;
}

} // namespace

class InterpEquivalenceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterpEquivalenceFuzz, RandomProgramsMatchTheOracle) {
  Rng G(GetParam() * 1'000'003 + 17);
  for (int Round = 0; Round < 25; ++Round) {
    Module M = randomProgram(G);
    ExecOptions Opts;
    Opts.MaxInstructions = G.chance(1, 2) ? 4000 : G.below(200);
    Opts.MaxCallDepth = 1 + static_cast<uint32_t>(G.below(24));
    if (G.chance(1, 3))
      Opts.MaxBranchEvents = G.below(40);
    for (int A = 0; A < 3; ++A)
      Opts.EntryArgs.push_back(G.range(-50, 50));
    expectSameAllHooks(M, Opts,
                       "seed " + std::to_string(GetParam()) + " round " +
                           std::to_string(Round));
    if (::testing::Test::HasFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpEquivalenceFuzz,
                         ::testing::Range<uint64_t>(0, 40));

// -- Error paths -------------------------------------------------------------

TEST(InterpEquivalence, EveryBudgetAcrossFusedPairs) {
  Module M = countdown();
  ExecResult Full = execute(M);
  ASSERT_TRUE(Full.Ok);
  for (uint64_t Max = 0; Max <= Full.InstructionsExecuted + 1; ++Max) {
    ExecOptions Opts;
    Opts.MaxInstructions = Max;
    expectSameAllHooks(M, Opts, "budget " + std::to_string(Max));
  }
}

TEST(InterpEquivalence, EveryBranchLimit) {
  Module M = countdown();
  for (uint64_t Limit = 0; Limit <= 4; ++Limit) {
    ExecOptions Opts;
    Opts.MaxBranchEvents = Limit;
    expectSameAllHooks(M, Opts, "branch limit " + std::to_string(Limit));
  }
}

TEST(InterpEquivalence, FallOffPaths) {
  // Unterminated block: falls off after the add.
  expectSameAllHooks(rawModule({{inst(Opcode::Add, 0, K(1), K(2))}}),
                     ExecOptions(), "unterminated block");
  // A block ending in a call falls off once the callee returns.
  {
    Module M = rawModule({{inst(Opcode::Mov, 0, K(5))}});
    uint32_t G = M.addFunction("g", 0);
    M.Functions[G].Blocks.resize(1);
    M.Functions[G].Blocks[0].Insts.push_back(inst(Opcode::Ret, 0, K(9)));
    Instruction Call = inst(Opcode::Call, 1, Operand::none());
    Call.Callee = G;
    M.Functions[0].Blocks[0].Insts.push_back(Call);
    expectSameAllHooks(M, ExecOptions(), "call at block end");
  }
  // Empty block as a branch target, and as the entry block.
  expectSameAllHooks(rawModule({{inst(Opcode::Mov, 0, K(1)), br(R(0), 1, 1)},
                                {}}),
                     ExecOptions(), "empty target block");
  expectSameAllHooks(rawModule({{}}), ExecOptions(), "empty entry block");
  // Out-of-range branch and jump targets.
  expectSameAllHooks(rawModule({{inst(Opcode::CmpEq, 0, K(1), K(1)),
                                 br(R(0), 7, 0)}}),
                     ExecOptions(), "branch target out of range");
  expectSameAllHooks(rawModule({{jmp(3)}}), ExecOptions(),
                     "jump target out of range");
  // An entry function without blocks, and one that does not exist.
  expectSameAllHooks(rawModule({}), ExecOptions(), "empty entry function");
  Module NoEntry = countdown();
  NoEntry.EntryFunction = 5;
  expectSameAllHooks(NoEntry, ExecOptions(), "entry function out of range");
}

TEST(InterpEquivalence, MemoryFaults) {
  for (int64_t Addr : {-1, 0, 7, 8, 100}) {
    expectSameAllHooks(
        rawModule({{inst(Opcode::Load, 0, K(Addr), K(0)),
                    inst(Opcode::Ret, 0, R(0))}}),
        ExecOptions(), "load " + std::to_string(Addr));
    expectSameAllHooks(
        rawModule({{inst(Opcode::Mov, 1, K(Addr)),
                    inst(Opcode::Store, 0, K(0), R(1), K(42)),
                    inst(Opcode::Ret, 0, K(0))}}),
        ExecOptions(), "store " + std::to_string(Addr));
  }
}

TEST(InterpEquivalence, CallDepthLimit) {
  // f(n) = n > 0 ? f(n - 1) + 1 : 0, entered with n = 10.
  Module M = rawModule({{inst(Opcode::CmpGt, 1, R(0), K(0)), br(R(1), 1, 2)},
                        {inst(Opcode::Sub, 2, R(0), K(1)),
                         inst(Opcode::Call, 3, Operand::none()),
                         inst(Opcode::Add, 3, R(3), K(1)),
                         inst(Opcode::Ret, 0, R(3))},
                        {inst(Opcode::Ret, 0, K(0))}});
  M.Functions[0].NumParams = 1;
  M.Functions[0].Blocks[1].Insts[1].Callee = 0;
  M.Functions[0].Blocks[1].Insts[1].Args = {R(2)};
  for (uint32_t Depth : {0u, 1u, 5u, 10u, 11u, 12u, 4096u}) {
    ExecOptions Opts;
    Opts.EntryArgs = {10};
    Opts.MaxCallDepth = Depth;
    expectSameAllHooks(M, Opts, "depth " + std::to_string(Depth));
  }
}
