//===- interp/Interpreter.cpp ---------------------------------------------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// execute() first decodes the module into a flat array of compact ops,
/// then runs one threaded dispatch loop over it:
///  - every function's blocks are laid out back to back, block targets
///    become op indexes, and the operand kinds (register or immediate; an
///    absent operand reads as immediate 0) are folded into the op code;
///  - a block that is empty or does not end in a terminator is followed by
///    a trap op, and every function ends in one trap that out-of-range
///    block targets (and an entry into a block-less function) resolve to;
///  - a compare whose result the next instruction branches on becomes one
///    fused op that counts both instructions;
///  - all frames share one register stack, so a call allocates nothing
///    once the stack has grown to the program's depth.
/// The decoder also rejects what would otherwise index out of bounds:
/// registers past the function's register count, callees past the module's
/// functions, and calls passing more arguments than the callee has
/// registers. The module is decoded afresh on every call, because the
/// pipeline mutates modules between runs (annotation, replication).
///
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "obs/Metrics.h"
#include "obs/TraceSpans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

using namespace bpcr;

TraceSink::~TraceSink() = default;
InstrListener::~InstrListener() = default;

// The binary IR opcodes, in Opcode order (Add .. CmpGe).
#define BPCR_COMPARE_OPS(X)                                                    \
  X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe)
#define BPCR_BINARY_OPS(X)                                                     \
  X(Add) X(Sub) X(Mul) X(Div) X(Rem) X(And) X(Or) X(Xor) X(Shl) X(Shr)         \
  BPCR_COMPARE_OPS(X)

// Store ops by address form (register + register, register + immediate,
// constant) and value form (register, immediate).
#define BPCR_STORE_OPS(X)                                                      \
  X(StoreRR_R) X(StoreRR_I) X(StoreRI_R) X(StoreRI_I) X(StoreI_R) X(StoreI_I)

namespace {

/// The IR's binary semantics, shared by the loop and constant folding:
/// wrapping arithmetic, Div/Rem by zero yield 0, INT64_MIN / -1 yields
/// INT64_MIN (remainder 0), shift amounts wrap at 64, Shr is arithmetic,
/// compares yield 0 or 1.
template <Opcode Op> int64_t binop(int64_t A, int64_t B) {
  uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  if constexpr (Op == Opcode::Add)
    return static_cast<int64_t>(UA + UB);
  else if constexpr (Op == Opcode::Sub)
    return static_cast<int64_t>(UA - UB);
  else if constexpr (Op == Opcode::Mul)
    return static_cast<int64_t>(UA * UB);
  else if constexpr (Op == Opcode::Div)
    return B == 0 ? 0 : (A == Min && B == -1) ? A : A / B;
  else if constexpr (Op == Opcode::Rem)
    return B == 0 ? 0 : (A == Min && B == -1) ? 0 : A % B;
  else if constexpr (Op == Opcode::And)
    return A & B;
  else if constexpr (Op == Opcode::Or)
    return A | B;
  else if constexpr (Op == Opcode::Xor)
    return A ^ B;
  else if constexpr (Op == Opcode::Shl)
    return static_cast<int64_t>(UA << (UB & 63));
  else if constexpr (Op == Opcode::Shr)
    return A >> (UB & 63);
  else if constexpr (Op == Opcode::CmpEq)
    return A == B;
  else if constexpr (Op == Opcode::CmpNe)
    return A != B;
  else if constexpr (Op == Opcode::CmpLt)
    return A < B;
  else if constexpr (Op == Opcode::CmpLe)
    return A <= B;
  else if constexpr (Op == Opcode::CmpGt)
    return A > B;
  else
    return A >= B;
}

int64_t foldBinop(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
#define X(N)                                                                   \
  case Opcode::N:                                                              \
    return binop<Opcode::N>(A, B);
    BPCR_BINARY_OPS(X)
#undef X
  default:
    return 0;
  }
}

/// Decoded op codes. Suffixes name the operand forms: R register,
/// I immediate; binary ops come as RR, RI and IR (both-immediate ones are
/// folded into MovI), and BrCmpXxYY is CmpXxYY fused with the Br after it.
enum OpCode : uint8_t {
  MovR,
  MovI,
#define X(N) N##RR, N##RI, N##IR,
  BPCR_BINARY_OPS(X)
#undef X
#define X(N) Br##N##RR, Br##N##RI, Br##N##IR,
  BPCR_COMPARE_OPS(X)
#undef X
  LoadRR,
  LoadRI,
  LoadI,
#define X(N) N,
  BPCR_STORE_OPS(X)
#undef X
  BrR,
  BrI,
  Jmp,
  Call,
  RetR,
  RetI,
  Trap,
};

/// One decoded op; 32 bytes. Field use by code:
///  - Mov/binary/Load:  Dst = f(A, B); A and B hold register indexes or
///    immediates as the code says (a constant Load address sits in A);
///  - Store:            Mem[A + B] = C;
///  - Br:               if (A) goto Target else goto B; Src is the IR
///    instruction handed to the sink;
///  - fused compare:    Dst = A cmp B, then the Br op right after it;
///  - Jmp:              goto Target;
///  - Call:             Dst = Funcs[Target](Args[A .. A + B));
///  - Ret:              return A;
///  - Trap:             control fell off a block of function Target.
struct Op {
  OpCode Code = Trap;
  Reg Dst = 0;
  uint32_t Target = 0;
  int64_t A = 0;
  int64_t B = 0;
  union {
    int64_t C = 0;
    const Instruction *Src;
  };
};
static_assert(sizeof(Op) == 32, "keep decoded ops compact");

/// A decoded operand.
struct Val {
  bool IsReg;
  int64_t V;
};

struct FuncInfo {
  uint32_t Entry;
  uint32_t NumRegs;
};

/// The IR position of an op, for the per-instruction listener.
struct Loc {
  uint32_t Func, Block, Inst;
};

struct Program {
  std::vector<Op> Code;
  std::vector<Loc> Locs;
  std::vector<FuncInfo> Funcs;
  std::vector<Val> Args;
};

/// Builds a Program from a module, or names the first malformed
/// instruction.
class Decoder {
public:
  Decoder(const Module &M, Program &P, std::string &Error)
      : M(M), P(P), Error(Error) {}

  bool run() {
    size_t NumOps = 0;
    for (const Function &F : M.Functions) {
      for (const BasicBlock &BB : F.Blocks)
        NumOps += BB.Insts.size() + (BB.isComplete() ? 0 : 1);
      ++NumOps; // the function's trap
    }
    P.Code.reserve(NumOps);
    P.Locs.reserve(NumOps);
    P.Funcs.resize(M.Functions.size());
    for (uint32_t F = 0; F < M.Functions.size(); ++F)
      if (!function(F))
        return false;
    return true;
  }

private:
  bool function(uint32_t F) {
    const Function &Fn = M.Functions[F];
    FuncIdx = F;
    // Lay the blocks out first so targets can be resolved in one pass.
    BlockStart.clear();
    uint32_t Pc = static_cast<uint32_t>(P.Code.size());
    for (const BasicBlock &BB : Fn.Blocks) {
      BlockStart.push_back(Pc);
      Pc += static_cast<uint32_t>(BB.Insts.size() + (BB.isComplete() ? 0 : 1));
    }
    TrapPc = Pc;
    P.Funcs[F] = {Fn.Blocks.empty() ? TrapPc : BlockStart[0], Fn.NumRegs};

    for (BlockIdx = 0; BlockIdx < Fn.Blocks.size(); ++BlockIdx) {
      const std::vector<Instruction> &Insts = Fn.Blocks[BlockIdx].Insts;
      for (InstIdx = 0; InstIdx < Insts.size(); ++InstIdx) {
        const Instruction *Next =
            InstIdx + 1 < Insts.size() ? &Insts[InstIdx + 1] : nullptr;
        Op O;
        if (!decode(Insts[InstIdx], Next, O))
          return false;
        emit(O, BlockIdx, InstIdx);
      }
      if (!Fn.Blocks[BlockIdx].isComplete())
        emitTrap();
    }
    emitTrap();
    return true;
  }

  void emit(const Op &O, uint32_t Block, uint32_t Inst) {
    P.Code.push_back(O);
    P.Locs.push_back({FuncIdx, Block, Inst});
  }

  void emitTrap() {
    Op O;
    O.Code = Trap;
    O.Target = FuncIdx;
    emit(O, 0, 0);
  }

  uint32_t target(uint32_t Block) const {
    return Block < BlockStart.size() ? BlockStart[Block] : TrapPc;
  }

  bool fail(const std::string &What) {
    Error = "malformed module: function " + std::to_string(FuncIdx) + " '" +
            M.Functions[FuncIdx].Name + "', block " +
            std::to_string(BlockIdx) + ", instruction " +
            std::to_string(InstIdx) + ": " + What;
    return false;
  }

  bool reg(int64_t R) {
    uint32_t NumRegs = M.Functions[FuncIdx].NumRegs;
    return (R >= 0 && R < NumRegs) ||
           fail("register r" + std::to_string(R) + " out of range (" +
                std::to_string(NumRegs) + " registers)");
  }

  bool read(const Operand &O, Val &Out) {
    Out = {O.isReg(), O.isReg() || O.isImm() ? O.Val : 0};
    return !O.isReg() || reg(O.Val);
  }

  /// Address A + B with any immediate part in B, or a constant in A.
  static OpCode address(Val &A, Val &B, OpCode RR, OpCode RI, OpCode I) {
    if (!A.IsReg)
      std::swap(A, B);
    if (!A.IsReg) {
      A.V = static_cast<int64_t>(static_cast<uint64_t>(A.V) +
                                 static_cast<uint64_t>(B.V));
      return I;
    }
    return B.IsReg ? RR : RI;
  }

  bool decode(const Instruction &I, const Instruction *Next, Op &O) {
    Val A{}, B{}, C{};
    O.Dst = I.Dst;
    switch (I.Op) {
    case Opcode::Mov:
      if (!read(I.A, A) || !reg(I.Dst))
        return false;
      O.Code = A.IsReg ? MovR : MovI;
      O.A = A.V;
      return true;

    case Opcode::Load:
      if (!read(I.A, A) || !read(I.B, B) || !reg(I.Dst))
        return false;
      O.Code = address(A, B, LoadRR, LoadRI, LoadI);
      O.A = A.V;
      O.B = B.V;
      return true;

    case Opcode::Store: {
      if (!read(I.A, A) || !read(I.B, B) || !read(I.C, C))
        return false;
      OpCode Base = address(A, B, StoreRR_R, StoreRI_R, StoreI_R);
      O.Code = static_cast<OpCode>(Base + (C.IsReg ? 0 : 1));
      O.A = A.V;
      O.B = B.V;
      O.C = C.V;
      return true;
    }

    case Opcode::Call: {
      if (I.Callee >= M.Functions.size())
        return fail("callee " + std::to_string(I.Callee) +
                    " out of range (" + std::to_string(M.Functions.size()) +
                    " functions)");
      uint32_t CalleeRegs = M.Functions[I.Callee].NumRegs;
      if (I.Args.size() > CalleeRegs)
        return fail("passes " + std::to_string(I.Args.size()) +
                    " arguments to a callee with " +
                    std::to_string(CalleeRegs) + " registers");
      if (!reg(I.Dst))
        return false;
      O.Code = Call;
      O.Target = I.Callee;
      O.A = static_cast<int64_t>(P.Args.size());
      O.B = static_cast<int64_t>(I.Args.size());
      for (const Operand &Arg : I.Args) {
        if (!read(Arg, A))
          return false;
        P.Args.push_back(A);
      }
      return true;
    }

    case Opcode::Br:
      if (!read(I.A, A))
        return false;
      O.Code = A.IsReg ? BrR : BrI;
      O.A = A.V;
      O.Target = target(I.TrueTarget);
      O.B = target(I.FalseTarget);
      O.Src = &I;
      return true;

    case Opcode::Jmp:
      O.Code = Jmp;
      O.Target = target(I.TrueTarget);
      return true;

    case Opcode::Ret:
      if (!read(I.A, A))
        return false;
      O.Code = A.IsReg ? RetR : RetI;
      O.A = A.V;
      return true;

    default:
      break;
    }

    if (I.Op < Opcode::Add || I.Op > Opcode::CmpGe)
      return fail("unknown opcode " +
                  std::to_string(static_cast<unsigned>(I.Op)));
    if (!read(I.A, A) || !read(I.B, B) || !reg(I.Dst))
      return false;
    if (!A.IsReg && !B.IsReg) {
      O.Code = MovI;
      O.A = foldBinop(I.Op, A.V, B.V);
      return true;
    }
    unsigned Form = A.IsReg ? (B.IsReg ? 0 : 1) : 2;
    unsigned Index = static_cast<unsigned>(I.Op) -
                     static_cast<unsigned>(Opcode::Add);
    O.Code = static_cast<OpCode>(AddRR + 3 * Index + Form);
    O.A = A.V;
    O.B = B.V;
    if (isCompare(I.Op) && Next && Next->Op == Opcode::Br &&
        Next->A.isReg() && Next->A.Val == I.Dst) {
      unsigned CmpIndex = static_cast<unsigned>(I.Op) -
                          static_cast<unsigned>(Opcode::CmpEq);
      O.Code = static_cast<OpCode>(BrCmpEqRR + 3 * CmpIndex + Form);
    }
    return true;
  }

  const Module &M;
  Program &P;
  std::string &Error;
  std::vector<uint32_t> BlockStart;
  uint32_t TrapPc = 0;
  uint32_t FuncIdx = 0, BlockIdx = 0, InstIdx = 0;
};

static_assert(CmpEqRR - AddRR == 3 * (static_cast<unsigned>(Opcode::CmpEq) -
                                      static_cast<unsigned>(Opcode::Add)) &&
                  BrCmpEqRR - AddRR ==
                      3 * (static_cast<unsigned>(Opcode::CmpGe) -
                           static_cast<unsigned>(Opcode::Add) + 1),
              "binary op codes must follow Opcode order");
static_assert(StoreRI_R - StoreRR_R == 2 && StoreI_R - StoreRR_R == 4 &&
                  StoreRR_I == StoreRR_R + 1,
              "store op codes: address forms in steps of two, value form "
              "last");

/// Emitter policies for the execution loop. The loop is instantiated once
/// per policy, so the no-sink run pays nothing per branch and the sink run
/// pays one buffered store per event plus one virtual onBatch per flush —
/// never a virtual call per event.
struct NullEmitter {
  void emit(const Instruction &, bool) {}
  void flush() {}
};

struct BatchEmitter {
  static constexpr size_t BatchSize = 256;

  explicit BatchEmitter(TraceSink *Sink) : Sink(Sink) {}

  void emit(const Instruction &Br, bool Taken) {
    Buf[N].Br = &Br;
    Buf[N].Taken = Taken;
    if (++N == BatchSize)
      flush();
  }

  void flush() {
    if (N) {
      Sink->onBatch(Buf, N);
      N = 0;
    }
  }

  TraceSink *Sink;
  BranchBatchEvent Buf[BatchSize];
  size_t N = 0;
};

/// A suspended caller: where to resume, which register receives the
/// return value, and the caller's register window.
struct Frame {
  uint32_t RetPc;
  Reg RetDst;
  size_t Base;
  size_t Top;
};

/// Runs \p P from function \p Entry over \p Mem and fills every ExecResult
/// field but Memory. Each op first reports itself to the listener (when
/// \p Listen), then charges the instruction budget, then executes; trap
/// ops fail before either, like the fall-off check they stand for.
template <class Emitter, bool Listen>
void run(const Program &P, uint32_t Entry, std::vector<int64_t> &Mem,
         Emitter &Emit, const ExecOptions &Opts, ExecResult &R) {
  static void *const Labels[] = {
      &&L_MovR,
      &&L_MovI,
#define X(N) &&L_##N##RR, &&L_##N##RI, &&L_##N##IR,
      BPCR_BINARY_OPS(X)
#undef X
#define X(N) &&L_Br##N##RR, &&L_Br##N##RI, &&L_Br##N##IR,
      BPCR_COMPARE_OPS(X)
#undef X
      &&L_LoadRR,
      &&L_LoadRI,
      &&L_LoadI,
#define X(N) &&L_##N,
      BPCR_STORE_OPS(X)
#undef X
      &&L_BrR,
      &&L_BrI,
      &&L_Jmp,
      &&L_Call,
      &&L_RetR,
      &&L_RetI,
      &&L_Trap,
  };
  static_assert(sizeof(Labels) / sizeof(Labels[0]) == Trap + 1,
                "one handler per op code");

  const Op *const Code = P.Code.data();
  const uint64_t MaxInsts = Opts.MaxInstructions;
  const uint64_t MaxEvents = Opts.MaxBranchEvents;
  int64_t *const MemP = Mem.data();
  const uint64_t MemWords = Mem.size();

  // One register stack for all frames; the current frame is
  // Stack[Base, Top). It grows by doubling when a call needs more room.
  const FuncInfo &EntryFn = P.Funcs[Entry];
  std::vector<int64_t> Stack(std::max<size_t>(EntryFn.NumRegs, 256), 0);
  for (size_t I = 0; I < Opts.EntryArgs.size() && I < EntryFn.NumRegs; ++I)
    Stack[I] = Opts.EntryArgs[I];
  std::vector<Frame> Frames;
  size_t Base = 0, Top = EntryFn.NumRegs;
  int64_t *Regs = Stack.data();

  const Op *Pc = Code + EntryFn.Entry;
  uint64_t Count = 0, Events = 0;
  int64_t RetV = 0;
  char Msg[128] = {};

#define DISPATCH() goto *Labels[Pc->Code]
#define NEXT()                                                                 \
  do {                                                                         \
    ++Pc;                                                                      \
    DISPATCH();                                                                \
  } while (0)
#define STEP()                                                                 \
  do {                                                                         \
    if constexpr (Listen) {                                                    \
      const Loc &L = P.Locs[static_cast<size_t>(Pc - Code)];                   \
      Opts.Listener->onInstruction(L.Func, L.Block, L.Inst);                   \
    }                                                                          \
    if (++Count > MaxInsts)                                                    \
      goto BudgetExhausted;                                                    \
  } while (0)
#define FAIL(...)                                                              \
  do {                                                                         \
    std::snprintf(Msg, sizeof(Msg), __VA_ARGS__);                              \
    goto Failed;                                                               \
  } while (0)
  // Emits the branch event of Br op BR_OP, then jumps.
#define TAKE_BRANCH(BR_OP, TAKEN)                                              \
  do {                                                                         \
    const Op &Br_ = (BR_OP);                                                   \
    bool Taken_ = (TAKEN);                                                     \
    Emit.emit(*Br_.Src, Taken_);                                               \
    Pc = Code + (Taken_ ? Br_.Target : Br_.B);                                 \
    if (++Events >= MaxEvents) {                                               \
      R.HitBranchLimit = true;                                                 \
      goto Done;                                                               \
    }                                                                          \
    DISPATCH();                                                                \
  } while (0)

  DISPATCH();

L_MovR:
  STEP();
  Regs[Pc->Dst] = Regs[Pc->A];
  NEXT();
L_MovI:
  STEP();
  Regs[Pc->Dst] = Pc->A;
  NEXT();

#define X(N)                                                                   \
  L_##N##RR : STEP();                                                          \
  Regs[Pc->Dst] = binop<Opcode::N>(Regs[Pc->A], Regs[Pc->B]);                  \
  NEXT();                                                                      \
  L_##N##RI : STEP();                                                          \
  Regs[Pc->Dst] = binop<Opcode::N>(Regs[Pc->A], Pc->B);                        \
  NEXT();                                                                      \
  L_##N##IR : STEP();                                                          \
  Regs[Pc->Dst] = binop<Opcode::N>(Pc->A, Regs[Pc->B]);                        \
  NEXT();
  BPCR_BINARY_OPS(X)
#undef X

  // A fused compare + branch charges both instructions at once, so it runs
  // as the plain pair when the listener must see each one or when the
  // budget could run out between them.
#define FUSED(N, FORM, AV, BV)                                                 \
  L_Br##N##FORM : {                                                            \
    if (Listen || MaxInsts - Count < 2)                                        \
      goto L_##N##FORM;                                                        \
    Count += 2;                                                                \
    int64_t V_ = binop<Opcode::N>(AV, BV);                                     \
    Regs[Pc->Dst] = V_;                                                        \
    TAKE_BRANCH(Pc[1], V_ != 0);                                               \
  }
#define X(N)                                                                   \
  FUSED(N, RR, Regs[Pc->A], Regs[Pc->B])                                       \
  FUSED(N, RI, Regs[Pc->A], Pc->B)                                             \
  FUSED(N, IR, Pc->A, Regs[Pc->B])
  BPCR_COMPARE_OPS(X)
#undef X
#undef FUSED

#define MEMORY_OP(LABEL, ADDR, KIND, ACCESS)                                   \
  LABEL : {                                                                    \
    STEP();                                                                    \
    uint64_t Addr_ = (ADDR);                                                   \
    if (Addr_ >= MemWords)                                                     \
      FAIL(KIND " address %lld out of bounds",                                 \
           static_cast<long long>(static_cast<int64_t>(Addr_)));               \
    ACCESS;                                                                    \
    NEXT();                                                                    \
  }
#define U(V) static_cast<uint64_t>(V)
#define RR_ADDR U(Regs[Pc->A]) + U(Regs[Pc->B])
#define RI_ADDR U(Regs[Pc->A]) + U(Pc->B)
#define I_ADDR U(Pc->A)
  MEMORY_OP(L_LoadRR, RR_ADDR, "load from", Regs[Pc->Dst] = MemP[Addr_])
  MEMORY_OP(L_LoadRI, RI_ADDR, "load from", Regs[Pc->Dst] = MemP[Addr_])
  MEMORY_OP(L_LoadI, I_ADDR, "load from", Regs[Pc->Dst] = MemP[Addr_])
  MEMORY_OP(L_StoreRR_R, RR_ADDR, "store to", MemP[Addr_] = Regs[Pc->C])
  MEMORY_OP(L_StoreRR_I, RR_ADDR, "store to", MemP[Addr_] = Pc->C)
  MEMORY_OP(L_StoreRI_R, RI_ADDR, "store to", MemP[Addr_] = Regs[Pc->C])
  MEMORY_OP(L_StoreRI_I, RI_ADDR, "store to", MemP[Addr_] = Pc->C)
  MEMORY_OP(L_StoreI_R, I_ADDR, "store to", MemP[Addr_] = Regs[Pc->C])
  MEMORY_OP(L_StoreI_I, I_ADDR, "store to", MemP[Addr_] = Pc->C)
#undef I_ADDR
#undef RI_ADDR
#undef RR_ADDR
#undef U
#undef MEMORY_OP

L_BrR:
  STEP();
  TAKE_BRANCH(*Pc, Regs[Pc->A] != 0);
L_BrI:
  STEP();
  TAKE_BRANCH(*Pc, Pc->A != 0);

L_Jmp:
  STEP();
  Pc = Code + Pc->Target;
  DISPATCH();

L_Call : {
  STEP();
  if (Frames.size() + 1 >= Opts.MaxCallDepth)
    FAIL("call depth limit exceeded (%lld)",
         static_cast<long long>(Opts.MaxCallDepth));
  const FuncInfo &Callee = P.Funcs[Pc->Target];
  size_t NewTop = Top + Callee.NumRegs;
  if (NewTop > Stack.size()) {
    Stack.resize(std::max(NewTop, 2 * Stack.size()));
    Regs = Stack.data() + Base;
  }
  // Frames never overlap, so arguments go straight from the caller's
  // registers into the callee's.
  int64_t *CalleeRegs = Stack.data() + Top;
  std::fill_n(CalleeRegs, Callee.NumRegs, 0);
  const Val *Arg = P.Args.data() + Pc->A;
  for (int64_t K = 0; K < Pc->B; ++K)
    CalleeRegs[K] = Arg[K].IsReg ? Regs[Arg[K].V] : Arg[K].V;
  Frames.push_back(
      {static_cast<uint32_t>(Pc + 1 - Code), Pc->Dst, Base, Top});
  Base = Top;
  Top = NewTop;
  Regs = CalleeRegs;
  Pc = Code + Callee.Entry;
  DISPATCH();
}

L_RetR:
  STEP();
  RetV = Regs[Pc->A];
  goto Return;
L_RetI:
  STEP();
  RetV = Pc->A;
Return : {
  if (Frames.empty()) {
    R.ReturnValue = RetV;
    goto Done;
  }
  Frame F = Frames.back();
  Frames.pop_back();
  Base = F.Base;
  Top = F.Top;
  Regs = Stack.data() + Base;
  Pc = Code + F.RetPc;
  Regs[F.RetDst] = RetV;
  DISPATCH();
}

L_Trap:
  FAIL("control fell off a block in function %lld",
       static_cast<long long>(Pc->Target));

BudgetExhausted:
  FAIL("instruction budget exhausted (%lld)",
       static_cast<long long>(MaxInsts));

Failed:
  R.Error = Msg;
Done:
  // Deliver any buffered events before the run result is observable —
  // every exit path (return, error, branch limit) funnels through here.
  Emit.flush();
  R.Ok = R.Error.empty();
  R.InstructionsExecuted = Count;
  R.BranchEvents = Events;

#undef TAKE_BRANCH
#undef FAIL
#undef STEP
#undef NEXT
#undef DISPATCH
}

template <class Emitter>
void runWith(const Program &P, uint32_t Entry, std::vector<int64_t> &Mem,
             Emitter &Emit, const ExecOptions &Opts, ExecResult &R) {
  if (Opts.Listener)
    run<Emitter, true>(P, Entry, Mem, Emit, Opts, R);
  else
    run<Emitter, false>(P, Entry, Mem, Emit, Opts, R);
}

} // namespace

ExecResult bpcr::execute(const Module &M, TraceSink *Sink,
                         const ExecOptions &Opts) {
  ExecResult R;

  // Observability is sampled at run granularity only: one enabled() check
  // and two clock reads per execution, nothing per instruction or event,
  // so the disabled path costs one predictable branch. The span follows
  // the same rule (one guard in its constructor).
  Span ExecSpan("interp.execute", "interp");
  Registry &Obs = Registry::global();
  const bool ObsOn = Obs.enabled();
  std::chrono::steady_clock::time_point ObsStart;
  if (ObsOn)
    ObsStart = std::chrono::steady_clock::now();

  if (M.EntryFunction >= M.Functions.size()) {
    R.Error = "entry function index out of range";
    return R;
  }

  Program P;
  if (!Decoder(M, P, R.Error).run())
    return R;

  std::vector<int64_t> Mem(M.MemWords, 0);
  for (size_t I = 0; I < M.InitialMemory.size() && I < Mem.size(); ++I)
    Mem[I] = M.InitialMemory[I];

  if (Sink) {
    BatchEmitter E(Sink);
    runWith(P, M.EntryFunction, Mem, E, Opts, R);
  } else {
    NullEmitter E;
    runWith(P, M.EntryFunction, Mem, E, Opts, R);
  }
  R.Memory = std::move(Mem);

  ExecSpan.arg("instructions", R.InstructionsExecuted);
  ExecSpan.arg("branch_events", R.BranchEvents);
  if (!R.Ok)
    ExecSpan.arg("error", R.Error);

  if (ObsOn) {
    double Ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - ObsStart)
            .count());
    Obs.timer("interp.run_ns").record(Ns);
    Obs.counter("interp.runs").inc();
    Obs.counter("interp.instructions").add(R.InstructionsExecuted);
    Obs.counter("interp.branch_events").add(R.BranchEvents);
    if (!Sink)
      // Events that were produced but had no sink to receive them.
      Obs.counter("interp.events_dropped").add(R.BranchEvents);
    if (R.HitBranchLimit)
      Obs.counter("interp.truncated_runs").inc();
    if (!R.Ok)
      Obs.counter("interp.errors").inc();
    if (Ns > 0.0) {
      Obs.gauge("interp.events_per_sec")
          .set(static_cast<double>(R.BranchEvents) * 1e9 / Ns);
      Obs.gauge("interp.instructions_per_sec")
          .set(static_cast<double>(R.InstructionsExecuted) * 1e9 / Ns);
    }
  }
  return R;
}
