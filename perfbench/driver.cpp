//===- perfbench/driver.cpp - Cold-process benchmark of bpcr jobs ---------===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
//
// A closed loop with one client over the 8 suite programs. Each job optimizes
// one program the way `bpcr replicate` or `bpcr sweep` does (columnar entry
// points, --states 6, node budget 50'000, one worker thread) and starts from
// empty process-wide state, as one `bpcr` invocation does: before each job,
// outside its timer, the worker clears SearchCache::global(), the metrics
// registry and the span tracer, and resets its peak-RSS mark. Without the
// reset every round after the first would be served from memoized search
// ladders that no `bpcr` run ever sees.
//
// Times are reported at a nominal machine speed: before each job, outside
// its timer, the worker times a fixed reference kernel, and every time
// metric is scaled by ReferenceNominalMs over the run's median kernel time.
// Shared VMs drift in speed by 10-20% over minutes; the scaling cancels
// most of it (see referenceKernelMs).
//
// Jobs run in one worker child forked from this driver, which itself never
// runs library code: a crash costs the job it happened in, counted as a
// failure, and the next job gets a fresh worker. One process for all jobs,
// rather than one per job, keeps the allocator's pages mapped between jobs;
// fresh page faults made per-job times on a shared VM jitter about twice as
// much and moved run medians by 13%.
//
// Usage:
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans-out FILE]
//   perfbench_driver --workload NAME --self-test
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 every
// round runs each program untraced and then with the span tracer on; one
// counting job per program with the metrics registry armed follows, and it
// prints the per-layer metrics. The last stdout line is one JSON object.
// --self-test runs one program's counting job twice and checks both see
// the same search-cache misses, i.e. that jobs really start cold.
//
//===----------------------------------------------------------------------===//

#include "core/LoopAwareProfiles.h"
#include "core/Pipeline.h"
#include "core/ProgramAnalysis.h"
#include "core/Replication.h"
#include "core/SearchCache.h"
#include "core/SizeSweep.h"
#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "obs/TraceSpans.h"
#include "sa/ReplicationSoundness.h"
#include "trace/TraceStats.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

using namespace bpcr;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

// The CLI defaults of `bpcr replicate` and `bpcr sweep`.
constexpr unsigned States = 6;
constexpr uint64_t NodeBudget = 50'000;
constexpr double ReplicateBudget = 2.0;
constexpr double SweepBudget = 16.0;
/// The sweep's quality point: the last curve point within the replicate
/// budget, so its ratio reads on the same scale as the replicate jobs'.
constexpr double SweepQualityBudget = 2.0;

/// The programs' input seed: the suite's reference inputs, which `bpcr`
/// uses by default. It is fixed so that every run times the same work:
/// across input seeds 1-6 a program's job time moves up to 7x (predict at
/// 50k events: 37-252 ms), far more than any bound a run-to-run comparison
/// could hold. The benchmark's --seed orders the jobs of each round.
constexpr uint64_t DataSeed = 1;

/// Times are reported at a nominal machine speed: the speed at which the
/// reference kernel (referenceKernelMs) takes this long.
constexpr double ReferenceNominalMs = 10.0;

/// Setup passes per run; setup_s is their median.
constexpr unsigned SetupPasses = 3;
/// A job that runs this long is killed and counted as failed.
constexpr unsigned JobTimeoutSeconds = 60;
/// The program the cold-cache check runs twice.
constexpr const char *ColdCheckProgram = "compress";

enum class JobKind { Replicate, Sweep };

struct BenchWorkload {
  const char *Name;
  JobKind Kind;
  uint64_t Events;
  const char *Why;
};

constexpr BenchWorkload BenchWorkloads[] = {
    {"replicate-long", JobKind::Replicate, 1'000'000,
     "bpcr replicate at the paper's 1M-event cap: three interpreter runs "
     "take about half the job, so interpreter and measure-once changes "
     "show here"},
    {"replicate-short", JobKind::Replicate, 50'000,
     "bpcr replicate at 50k events: search and joint planning dominate; "
     "carries compress's known 50k misprediction regression"},
    {"sweep", JobKind::Sweep, 1'000'000,
     "bpcr sweep to 16x at 1M events: full search ladders and kernels, no "
     "joint planning, replication or measurement runs"},
};

/// What the job does besides the timed work.
enum class Mode {
  /// Timed only.
  Timed,
  /// Also checks the replicated module against the original, uncapped.
  Warmup,
  /// Span tracer on; reports per-layer times from the spans.
  Traced,
  /// Metrics registry armed; reports the exact search.* / sa.* counts.
  Count,
};

//===----------------------------------------------------------------------===//
// Worker side: one job, reported as "key value" lines over a pipe.
//===----------------------------------------------------------------------===//

class Report {
public:
  void value(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Text += Key + " " + Buf + "\n";
  }
  void line(const std::string &Key, const std::string &V) {
    Text += Key + " " + V + "\n";
  }
  /// One line per error: the report protocol is line-based.
  void error(std::string Msg) {
    std::replace(Msg.begin(), Msg.end(), '\n', ' ');
    line("error", Msg);
  }
  const std::string &text() const { return Text; }

private:
  std::string Text;
};

/// Optimized over profile-only misprediction. A program the profile
/// already predicts perfectly counts as unchanged, unless the optimizer
/// made it worse, which fails the job.
double mispredRatio(Report &R, double Optimized, double Baseline) {
  if (Baseline > 0.0)
    return Optimized / Baseline;
  if (Optimized > 0.0)
    R.error("optimized program mispredicts where the profile never does");
  return 1.0;
}

double nsToMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

uint64_t endOf(const SpanEvent &S) { return S.StartNs + S.DurNs; }

bool within(const SpanEvent &Inner, const SpanEvent &Outer) {
  return Inner.StartNs >= Outer.StartNs && endOf(Inner) <= endOf(Outer);
}

int64_t intArg(const SpanEvent &S, const char *Key) {
  for (const SpanArg &A : S.Args)
    if (A.Key == Key && A.K == SpanArg::Kind::Int)
      return A.I;
  return 0;
}

/// Resets the peak RSS to the current RSS (Linux clear_refs).
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// Peak RSS since the last reset, in MB (VmHWM, Linux).
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0.0;
}

/// Closes the timed part of a job: its span, its time and its peak RSS.
/// What follows are checks outside the timer.
void endTimedPart(Report &R, Span &JobSpan, Clock::time_point Start) {
  JobSpan.end();
  R.value("job_ms", msSince(Start));
  R.value("rss_mb", peakRssMb());
}

/// Per-layer times of one traced job, from the spans the library emits and
/// the benchmark's own `bench.*` spans around each public call.
void reportSpanLayers(Report &R, JobKind Kind) {
  std::vector<SpanEvent> Spans = SpanTracer::global().snapshot();
  const SpanEvent *Job = nullptr;
  for (const SpanEvent &S : Spans)
    if (std::strcmp(S.Name, "bench.job") == 0)
      Job = &S;
  if (!Job) {
    R.error("traced job recorded no bench.job span");
    return;
  }
  const SpanEvent JobSpan = *Job;
  std::vector<SpanEvent> In;
  for (const SpanEvent &S : Spans)
    if (S.Tid == JobSpan.Tid && within(S, JobSpan))
      In.push_back(S);
  std::sort(In.begin(), In.end(), [](const SpanEvent &A, const SpanEvent &B) {
    return A.StartNs != B.StartNs ? A.StartNs < B.StartNs : A.Depth < B.Depth;
  });

  auto Named = [&In](const char *Name) -> const SpanEvent * {
    for (const SpanEvent &S : In)
      if (std::strcmp(S.Name, Name) == 0)
        return &S;
    return nullptr;
  };
  auto DurMs = [&Named](const char *Name) {
    const SpanEvent *S = Named(Name);
    return S ? nsToMs(S->DurNs) : 0.0;
  };

  // Spans on one thread nest properly, so in start order a span is a leaf
  // exactly when the next span does not start inside it.
  uint64_t CoveredNs = 0;
  for (size_t I = 0; I < In.size(); ++I) {
    bool Leaf = I + 1 == In.size() || In[I + 1].StartNs >= endOf(In[I]) ||
                In[I + 1].Depth <= In[I].Depth;
    if (Leaf)
      CoveredNs += In[I].DurNs;
  }

  const SpanEvent *Train = Named("bench.train");
  const SpanEvent *Measure = Named("bench.measure");
  uint64_t TrainNs = 0, MeasureNs = 0, ExecNs = 0, Runs = 0, Events = 0;
  uint64_t LadderNs = 0, LadderEnd = 0;
  for (const SpanEvent &S : In) {
    if (std::strcmp(S.Name, "interp.execute") == 0) {
      ++Runs;
      ExecNs += S.DurNs;
      Events += static_cast<uint64_t>(intArg(S, "branch_events"));
      if (Train && within(S, *Train))
        TrainNs += S.DurNs;
      if (Measure && within(S, *Measure))
        MeasureNs += S.DurNs;
    }
    // Outermost ladder builds only: a nested ladder is already covered.
    std::string_view Name(S.Name);
    if (Name.starts_with("search.") && Name.ends_with(".ladder") &&
        S.StartNs >= LadderEnd) {
      LadderNs += S.DurNs;
      LadderEnd = endOf(S);
    }
  }

  R.value("layer job_ms", nsToMs(JobSpan.DurNs));
  R.value("layer covered_ms", nsToMs(CoveredNs));
  R.value("layer interp.train_ms", nsToMs(TrainNs));
  R.value("layer interp.measure_ms", nsToMs(MeasureNs));
  R.value("layer interp.exec_ms", nsToMs(ExecNs));
  R.value("layer interp.runs", static_cast<double>(Runs));
  R.value("layer interp.events", static_cast<double>(Events));
  R.value("layer ir.verify_ms", DurMs("bench.verify"));
  if (Kind == JobKind::Replicate) {
    R.value("layer analysis_ms", DurMs("pipeline.phase.loop_analysis"));
    R.value("layer sa.proofs_ms", DurMs("pipeline.phase.proof_analysis"));
    R.value("layer core.profiles_ms", DurMs("pipeline.phase.profiling"));
    R.value("layer core.search_ms", DurMs("pipeline.phase.machine_search"));
    R.value("layer core.joint_ms", DurMs("pipeline.phase.joint_planning"));
    R.value("layer core.replication_ms",
            DurMs("pipeline.phase.replication"));
  } else {
    R.value("layer analysis_ms", DurMs("bench.analysis"));
    R.value("layer core.profiles_ms", DurMs("bench.profiles"));
    R.value("layer core.search_ms", nsToMs(LadderNs));
    R.value("layer core.sweep_ms", DurMs("bench.sweep"));
  }
  for (const SpanEvent &S : Spans)
    if (std::strcmp(S.Name, "bench.soundness") == 0)
      R.value("layer sa.soundness_ms", nsToMs(S.DurNs));

  // The raw spans, job-relative, for the run's span file.
  for (const SpanEvent &S : In)
    R.line("span", std::string(S.Name) + " " + S.Category + " " +
                       std::to_string(S.StartNs - JobSpan.StartNs) + " " +
                       std::to_string(S.DurNs));
}

void reportCounts(Report &R) {
  Registry &Reg = Registry::global();
  for (const char *Name :
       {"search.cache.misses", "search.cache.hits", "search.simd.words",
        "search.pruned_by_proof", "sa.soundness.checks"})
    R.value(std::string("layer ") + Name,
            static_cast<double>(Reg.counter(Name).value()));
}

void replicateJob(Report &R, const BenchWorkload &BW, Module &Mod,
                  const ColumnarTrace &CT, Span &JobSpan,
                  Clock::time_point Start, Mode M) {
  PipelineOptions Opts;
  Opts.Strategy.MaxStates = States;
  Opts.Strategy.NodeBudget = NodeBudget;
  Opts.Strategy.Jobs = 1;
  Opts.MaxSizeFactor = ReplicateBudget;

  Span SRepl("bench.replicate", "bench");
  PipelineResult PR = replicateModule(Mod, CT, Opts);
  SRepl.end();

  Span SVerify("bench.verify", "bench");
  std::vector<std::string> VerifyErrors = verifyModule(PR.Transformed);
  SVerify.end();

  Span SMeasure("bench.measure", "bench");
  TraceStats Stats(static_cast<uint32_t>(Mod.conditionalBranchCount()));
  Stats.addTrace(CT);
  Module Annotated = Mod;
  annotateProfilePredictions(Annotated, Stats);
  ExecOptions EO;
  EO.MaxBranchEvents = BW.Events;
  PredictionStats Before = measureAnnotatedPredictions(Annotated, EO);
  PredictionStats After = measureAnnotatedPredictions(PR.Transformed, EO);
  SMeasure.end();
  endTimedPart(R, JobSpan, Start);

  for (const std::string &E : VerifyErrors)
    R.error("transformed module fails verification: " + E);
  for (const sa::Diagnostic &D : PR.Soundness)
    R.error("soundness finding: " + D.render());
  if (PR.sizeFactor() > ReplicateBudget)
    R.error("size factor " + std::to_string(PR.sizeFactor()) +
            " exceeds the budget");
  if (Before.Predictions == 0 || After.Predictions == 0)
    R.error("measurement run predicted no branches");

  R.value("ratio", mispredRatio(R, After.mispredictionPercent(),
                                Before.mispredictionPercent()));
  R.value("size", PR.sizeFactor());
  R.value("profile_pct", Before.mispredictionPercent());
  R.value("optimized_pct", After.mispredictionPercent());
  std::ostringstream Sig;
  Sig << Before.Predictions << ' ' << Before.Mispredictions << ' '
      << After.Predictions << ' ' << After.Mispredictions << ' '
      << PR.OrigInstructions << ' ' << PR.NewInstructions << ' '
      << PR.LoopReplications << ' ' << PR.JointReplications << ' '
      << PR.CorrelatedReplications << ' ' << PR.SkippedBudget << ' '
      << PR.SkippedStructure;
  R.line("sig", Sig.str());

  if (M == Mode::Warmup) {
    // Reference check, independent of core: run uncapped, the replicated
    // module computes what the original computes.
    ExecResult Orig = execute(Mod);
    ExecResult Repl = execute(PR.Transformed);
    if (!Orig.Ok || !Repl.Ok)
      R.error("uncapped run failed: " + Orig.Error + Repl.Error);
    else if (Orig.ReturnValue != Repl.ReturnValue ||
             Orig.Memory != Repl.Memory)
      R.error("replicated module's result or final memory differs from "
              "the original's");
  }
  if (M == Mode::Traced) {
    Span SSound("bench.soundness", "bench");
    std::vector<sa::Diagnostic> Diags =
        sa::checkReplicationSoundness(Mod, PR.Transformed);
    SSound.end();
    if (!Diags.empty())
      R.error("benchmark-side soundness check failed");
    R.value("layer replications.loop", PR.LoopReplications);
    R.value("layer replications.joint", PR.JointReplications);
    R.value("layer replications.correlated", PR.CorrelatedReplications);
    R.value("layer replication.applied", PR.LoopReplications +
                                             PR.JointReplications +
                                             PR.CorrelatedReplications);
    R.value("layer replication.skipped",
            PR.SkippedBudget + PR.SkippedStructure);
  }
}

void sweepJob(Report &R, Module &Mod, const ColumnarTrace &CT,
              Span &JobSpan, Clock::time_point Start, Mode M) {
  Span SAnalysis("bench.analysis", "bench");
  ProgramAnalysis PA(Mod);
  SAnalysis.end();

  Span SProfiles("bench.profiles", "bench");
  ProfileSet Profiles = buildLoopAwareProfiles(PA, CT);
  SProfiles.end();

  SweepOptions Opts;
  Opts.MaxStates = States;
  Opts.MaxSizeFactor = SweepBudget;
  Opts.NodeBudget = NodeBudget;
  Opts.Jobs = 1;
  Span SSweep("bench.sweep", "bench");
  std::vector<SweepPoint> Points = computeSizeSweep(PA, Profiles, CT, Opts);
  SSweep.end();
  endTimedPart(R, JobSpan, Start);

  if (Points.empty() || Points[0].SizeFactor != 1.0) {
    R.error("sweep curve does not start at 1.0x");
    return;
  }
  size_t Quality = 0;
  std::ostringstream Sig;
  Sig.precision(17);
  for (size_t I = 0; I < Points.size(); ++I) {
    const SweepPoint &P = Points[I];
    if (I > 0 && P.SizeFactor < Points[I - 1].SizeFactor)
      R.error("sweep size factor decreases at point " + std::to_string(I));
    // The curve stops at the first point past the budget
    // (SweepOptions::MaxSizeFactor), so only the last point may exceed it.
    if (P.SizeFactor > SweepBudget && I + 1 != Points.size())
      R.error("sweep point " + std::to_string(I) + " exceeds 16x");
    if (P.SizeFactor <= SweepQualityBudget)
      Quality = I;
    Sig << P.SizeFactor << ' ' << P.MispredictPercent << ' ' << P.BranchId
        << ' ' << P.NewStates << ';';
  }
  R.value("ratio", mispredRatio(R, Points[Quality].MispredictPercent,
                                Points[0].MispredictPercent));
  R.value("size", Points[Quality].SizeFactor);
  R.value("profile_pct", Points[0].MispredictPercent);
  R.value("optimized_pct", Points[Quality].MispredictPercent);
  R.line("sig", Sig.str());
  if (M == Mode::Traced)
    R.value("layer sweep.points", static_cast<double>(Points.size()));
}

/// Runs one job in the calling (worker) process.
std::string runJob(const BenchWorkload &BW, const Workload &W, Mode M) {
  Report R;
  SearchCache &Cache = SearchCache::global();
  if (Cache.size() != 0 || Cache.stats().Misses != 0)
    R.error("job started with a warm search cache");

  Clock::time_point Start = Clock::now();
  Span JobSpan("bench.job", "bench");
  Module Mod;
  Span STrain("bench.train", "bench");
  ColumnarTrace CT = traceWorkloadColumnar(W, DataSeed, Mod, BW.Events);
  STrain.end();
  if (BW.Kind == JobKind::Replicate)
    replicateJob(R, BW, Mod, CT, JobSpan, Start, M);
  else
    sweepJob(R, Mod, CT, JobSpan, Start, M);

  if (M == Mode::Traced)
    reportSpanLayers(R, BW.Kind);
  if (M == Mode::Count)
    reportCounts(R);
  return R.text();
}

/// Times a fixed switch-dispatch loop over a 256 KiB array, the shape of
/// the interpreter's and the search's hot loops. Every call executes the
/// same instructions, so its time measures the machine's current speed. On
/// a shared VM that speed drifts by 10-20% over minutes; jobs drift with
/// it, and dividing by this kernel's time cancels most of the drift. (A
/// pointer chase over 8 MiB did not track it.)
double referenceKernelMs() {
  static std::vector<uint64_t> Mem(uint64_t{1} << 15);
  std::fill(Mem.begin(), Mem.end(), uint64_t{0});
  static const uint8_t Code[16] = {0, 1, 2, 3, 1, 0, 2, 4,
                                   3, 1, 2, 0, 4, 1, 3, 2};
  const uint64_t Mask = Mem.size() - 1;
  Clock::time_point Start = Clock::now();
  uint64_t A = 1, B = 7, Pc = 0;
  for (uint64_t I = 0; I < 4'000'000; ++I) {
    switch (Code[Pc & 15]) {
    case 0:
      A = A * 31 + B;
      break;
    case 1:
      Mem[A & Mask] += B;
      break;
    case 2:
      B ^= Mem[(B + I) & Mask];
      break;
    case 3:
      if (A & 4)
        Pc += 3;
      break;
    default:
      B += static_cast<uint64_t>(static_cast<int64_t>(A) >> 3);
      break;
    }
    Pc += 1 + (B & 1);
  }
  volatile uint64_t Sink = A + B;
  (void)Sink;
  return msSince(Start);
}

/// Runs one job from empty process-wide state. The reset and the reference
/// kernel run outside the job's timer.
std::string runColdJob(const BenchWorkload &BW, const Workload &W, Mode M) {
  SearchCache::global().clear();
  SpanTracer &Tracer = SpanTracer::global();
  Registry &Reg = Registry::global();
  Tracer.clear();
  Reg.clear();
  Tracer.setEnabled(M == Mode::Traced);
  Reg.setEnabled(M == Mode::Count);
  char Ref[64];
  std::snprintf(Ref, sizeof(Ref), "ref_ms %.17g\n", referenceKernelMs());
  resetPeakRss();
  std::string Text = runJob(BW, W, M);
  Tracer.setEnabled(false);
  Reg.setEnabled(false);
  return Text + Ref + "done 1\n";
}

bool writeAll(int Fd, const std::string &Text) {
  size_t Off = 0;
  while (Off < Text.size()) {
    ssize_t N = write(Fd, Text.data() + Off, Text.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// The worker process: reads "<program> <mode>" lines and answers each
/// with one job's report, ended by a "done" line.
[[noreturn]] void workerMain(int In, int Out, const BenchWorkload &BW) {
  const std::vector<Workload> &Programs = allWorkloads();
  std::FILE *Commands = fdopen(In, "r");
  char Line[64];
  while (Commands && std::fgets(Line, sizeof(Line), Commands)) {
    unsigned Program = 0, M = 0;
    if (std::sscanf(Line, "%u %u", &Program, &M) != 2 ||
        Program >= Programs.size() || M > static_cast<unsigned>(Mode::Count))
      break;
    std::string Text;
    alarm(JobTimeoutSeconds);
    try {
      Text = runColdJob(BW, Programs[Program], static_cast<Mode>(M));
    } catch (const std::exception &E) {
      Text = std::string("error exception: ") + E.what() + "\ndone 1\n";
    }
    alarm(0);
    if (!writeAll(Out, Text))
      break;
  }
  _exit(0);
}

//===----------------------------------------------------------------------===//
// Driver side.
//===----------------------------------------------------------------------===//

struct JobSpanLine {
  std::string Name, Category;
  uint64_t StartNs = 0, DurNs = 0;
};

struct JobResult {
  std::string Program;
  bool Ok = false;
  std::vector<std::string> Errors;
  double JobMs = 0.0;
  /// The reference kernel's time just before the job.
  double RefMs = 0.0;
  double RssMb = 0.0;
  double Ratio = 0.0, Size = 0.0, ProfilePct = 0.0, OptimizedPct = 0.0;
  std::string Signature;
  std::map<std::string, double> Layers;
  std::vector<JobSpanLine> Spans;
};

void parseReport(const std::string &Text, JobResult &J) {
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Sp = Line.find(' ');
    std::string Key = Line.substr(0, Sp);
    std::string Rest = Sp == std::string::npos ? "" : Line.substr(Sp + 1);
    double V = std::strtod(Rest.c_str(), nullptr);
    if (Key == "error")
      J.Errors.push_back(Rest);
    else if (Key == "sig")
      J.Signature = Rest;
    else if (Key == "job_ms")
      J.JobMs = V;
    else if (Key == "ref_ms")
      J.RefMs = V;
    else if (Key == "rss_mb")
      J.RssMb = V;
    else if (Key == "ratio")
      J.Ratio = V;
    else if (Key == "size")
      J.Size = V;
    else if (Key == "profile_pct")
      J.ProfilePct = V;
    else if (Key == "optimized_pct")
      J.OptimizedPct = V;
    else if (Key == "layer") {
      std::istringstream LS(Rest);
      std::string Name;
      double LV = 0.0;
      LS >> Name >> LV;
      J.Layers[Name] += LV;
    } else if (Key == "span") {
      std::istringstream LS(Rest);
      JobSpanLine S;
      LS >> S.Name >> S.Category >> S.StartNs >> S.DurNs;
      J.Spans.push_back(std::move(S));
    }
  }
}

/// The forked child that runs the jobs. The driver itself never runs
/// library code, so a crash in a job costs that job, not the run: the
/// driver counts it as failed and forks a fresh worker for the next one.
class Worker {
public:
  explicit Worker(const BenchWorkload &BW) : BW(BW) {}
  ~Worker() { stop(); }
  Worker(const Worker &) = delete;
  Worker &operator=(const Worker &) = delete;

  JobResult run(size_t Program, Mode M) {
    JobResult J;
    J.Program = allWorkloads()[Program].Name;
    std::string Text;
    std::string Command = std::to_string(Program) + " " +
                          std::to_string(static_cast<int>(M)) + "\n";
    bool Complete = (Pid > 0 || start(J.Errors)) &&
                    writeAll(ToWorker, Command) && readReport(Text);
    parseReport(Text, J);
    if (!Complete)
      J.Errors.push_back("worker lost during the job: " + stop());
    J.Ok = J.Errors.empty();
    return J;
  }

private:
  bool start(std::vector<std::string> &Errors) {
    int Cmd[2], Rep[2];
    if (pipe(Cmd) != 0) {
      Errors.push_back(std::string("pipe: ") + std::strerror(errno));
      return false;
    }
    if (pipe(Rep) != 0) {
      Errors.push_back(std::string("pipe: ") + std::strerror(errno));
      close(Cmd[0]);
      close(Cmd[1]);
      return false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    Pid = fork();
    if (Pid == 0) {
      close(Cmd[1]);
      close(Rep[0]);
      workerMain(Cmd[0], Rep[1], BW);
    }
    close(Cmd[0]);
    close(Rep[1]);
    ToWorker = Cmd[1];
    FromWorker = Rep[0];
    if (Pid < 0) {
      Errors.push_back(std::string("fork: ") + std::strerror(errno));
      stop();
      return false;
    }
    return true;
  }

  /// Reads up to and including the next "done" line.
  bool readReport(std::string &Text) {
    char Buf[1 << 14];
    for (;;) {
      size_t End = Pending.find("\ndone 1\n");
      if (End != std::string::npos) {
        Text = Pending.substr(0, End + 8);
        Pending.erase(0, End + 8);
        return true;
      }
      ssize_t N = read(FromWorker, Buf, sizeof(Buf));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Text = Pending;
        Pending.clear();
        return false;
      }
      Pending.append(Buf, static_cast<size_t>(N));
    }
  }

  /// Ends the worker and reaps it. \returns how it ended.
  std::string stop() {
    if (ToWorker >= 0)
      close(ToWorker);
    if (FromWorker >= 0)
      close(FromWorker);
    ToWorker = FromWorker = -1;
    Pending.clear();
    if (Pid <= 0)
      return "no worker";
    int Status = 0;
    while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR)
      ;
    Pid = -1;
    if (WIFSIGNALED(Status))
      return "killed by signal " + std::to_string(WTERMSIG(Status));
    return "exited with status " + std::to_string(WEXITSTATUS(Status));
  }

  const BenchWorkload &BW;
  pid_t Pid = -1;
  int ToWorker = -1, FromWorker = -1;
  std::string Pending;
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// 90th percentile of the job times pooled over all programs, linearly
/// interpolated.
double pooledP90(const std::vector<JobResult> &Jobs) {
  std::vector<double> V;
  for (const JobResult &J : Jobs)
    V.push_back(J.JobMs);
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = 0.9 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

/// Multiplies a time measured next to the reference-kernel times \p RefMs
/// into its value at the nominal machine speed. Jobs that never ran (all
/// lost to crashes) leave no kernel time; their run is reported unscaled.
double speedFactor(const std::vector<double> &RefMs) {
  double Ref = median(RefMs);
  return Ref > 0.0 ? ReferenceNominalMs / Ref : 1.0;
}

std::vector<double> refTimes(const std::vector<JobResult> &Jobs) {
  std::vector<double> Out;
  for (const JobResult &J : Jobs)
    Out.push_back(J.RefMs);
  return Out;
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0.0 : std::exp(LogSum / static_cast<double>(V.size()));
}

struct Options {
  const BenchWorkload *BW = nullptr;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool SelfTest = false;
  std::string SpansOut;
};

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n"
               "       perfbench_driver --workload NAME --self-test\n"
               "workloads: replicate-long, replicate-short, sweep\n",
               Msg);
  return 2;
}

/// The driver's state across the phases of one run.
class Bench {
public:
  explicit Bench(const Options &O)
      : BW(*O.BW), Programs(allWorkloads()), Jobs(BW), Order(Programs.size()),
        Rng(O.Seed) {
    std::iota(Order.begin(), Order.end(), size_t{0});
  }

  /// One warm-up job per program, each in a fresh worker process, so it
  /// runs and peaks in memory as one `bpcr` invocation does. The first pass
  /// records the reference results; later passes must reproduce them.
  /// \returns the pass's seconds, without the reference kernel's.
  double setupPass(Clock::time_point Start) {
    double KernelMs = 0.0;
    for (size_t P = 0; P < Programs.size(); ++P) {
      const Workload &W = Programs[P];
      JobResult J = Worker(BW).run(P, Mode::Warmup);
      PeakRssMb = std::max(PeakRssMb, J.RssMb);
      KernelMs += J.RefMs;
      SetupRefMs.push_back(J.RefMs);
      auto Ref = Reference.find(W.Name);
      if (Ref == Reference.end())
        Reference.emplace(W.Name, J);
      else if (J.Signature != Ref->second.Signature)
        fail(std::string(W.Name) + ": warm-up results differ between passes");
      if (!J.Ok)
        fail(std::string(W.Name) + " warm-up: " + J.Errors.front());
    }
    return (msSince(Start) - KernelMs) / 1000.0;
  }

  /// Closed loop over the programs for \p Seconds, whole rounds only.
  /// Each round runs every program once per mode in \p Modes, back to
  /// back, so the modes' jobs see the same machine; Out[I] collects the
  /// jobs of Modes[I]. \returns the loop's wall seconds, without the
  /// reference kernel's.
  double loop(double Seconds, const std::vector<Mode> &Modes,
              std::vector<std::vector<JobResult>> &Out) {
    Out.resize(Modes.size());
    double KernelMs = 0.0;
    Clock::time_point Start = Clock::now();
    do {
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (size_t P : Order)
        for (size_t I = 0; I < Modes.size(); ++I) {
          Out[I].push_back(checked(Jobs.run(P, Modes[I])));
          KernelMs += Out[I].back().RefMs;
        }
    } while (msSince(Start) < Seconds * 1000.0);
    return (msSince(Start) - KernelMs) / 1000.0;
  }

  /// Runs one program's counting job twice in the same worker: equal
  /// search-cache misses prove each job starts from empty process-wide
  /// caches rather than from what the previous job memoized.
  void coldCheck() {
    size_t P = 0;
    while (std::strcmp(Programs[P].Name, ColdCheckProgram) != 0)
      ++P;
    JobResult A = Jobs.run(P, Mode::Count);
    JobResult B = Jobs.run(P, Mode::Count);
    double MA = A.Layers["search.cache.misses"];
    double MB = B.Layers["search.cache.misses"];
    std::printf("cold-cache check: %s search.cache.misses %.0f then %.0f\n",
                Programs[P].Name, MA, MB);
    if (!A.Ok || !B.Ok)
      fail("cold-cache check job failed");
    else if (MA != MB || MA == 0.0)
      fail("repeated job saw different search-cache misses: jobs are not "
           "cold");
  }

  /// One counting job per program, untimed.
  std::vector<JobResult> countPass() {
    std::vector<JobResult> Out;
    for (size_t P = 0; P < Programs.size(); ++P) {
      const Workload &W = Programs[P];
      JobResult J = Jobs.run(P, Mode::Count);
      if (!J.Ok)
        fail(std::string(W.Name) + " counting job: " + J.Errors.front());
      else if (J.Signature != Reference.at(W.Name).Signature)
        fail(std::string(W.Name) +
             ": results change when the metrics registry is armed");
      Out.push_back(std::move(J));
    }
    return Out;
  }

  /// Per-program median job time, in suite order.
  std::vector<double> programMedians(const std::vector<JobResult> &Results) {
    std::vector<double> Out;
    for (const Workload &W : Programs) {
      std::vector<double> Ms;
      for (const JobResult &J : Results)
        if (J.Program == W.Name)
          Ms.push_back(J.JobMs);
      Out.push_back(median(Ms));
    }
    return Out;
  }

  void fail(const std::string &Msg) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", Msg.c_str());
    Correct = false;
  }

  const BenchWorkload &BW;
  const std::vector<Workload> &Programs;
  /// Runs the timed, traced and counting jobs.
  Worker Jobs;
  /// Program order of the current round, shuffled by the benchmark seed.
  std::vector<size_t> Order;
  std::mt19937_64 Rng;
  std::map<std::string, JobResult> Reference;
  /// The largest peak RSS of any warm-up job.
  double PeakRssMb = 0.0;
  /// The reference kernel's times before the warm-up jobs.
  std::vector<double> SetupRefMs;
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;

private:
  /// Per-job checks that need the reference: results equal the warm-up's.
  JobResult checked(JobResult J) {
    const JobResult &Ref = Reference.at(J.Program);
    if (J.Ok && J.Signature != Ref.Signature) {
      J.Errors.push_back("results differ from the warm-up job's");
      J.Ok = false;
    }
    ++Attempted;
    if (!J.Ok) {
      ++Failed;
      fail(J.Program + ": " + J.Errors.front());
    }
    return J;
  }
};

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(const Bench &B, const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("%-28s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              B.Correct ? "true" : "false",
              static_cast<unsigned long long>(B.Attempted),
              static_cast<unsigned long long>(B.Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
}

/// The deterministic quality metrics, from the reference results.
void qualityMetrics(const Bench &B, std::vector<Metric> &Out) {
  std::vector<double> Ratios;
  double SizeSum = 0.0;
  std::printf("\n%-11s %9s %9s %7s %6s\n", "program", "profile%",
              "optimized%", "ratio", "size");
  for (const Workload &W : B.Programs) {
    const JobResult &R = B.Reference.at(W.Name);
    std::printf("%-11s %9.3f %9.3f %7.4f %6.3f\n", W.Name, R.ProfilePct,
                R.OptimizedPct, R.Ratio, R.Size);
    Ratios.push_back(R.Ratio);
    SizeSum += R.Size;
  }
  Out.push_back({"mispred_ratio.geomean", geomean(Ratios), "ratio"});
  Out.push_back({"mispred_ratio.max",
                 *std::max_element(Ratios.begin(), Ratios.end()), "ratio"});
  Out.push_back({"size_factor.mean",
                 SizeSum / static_cast<double>(B.Programs.size()), "x"});
}

/// Writes every traced job's spans as a Chrome Trace document, one track
/// per job.
void writeSpans(const std::string &Path, const std::vector<JobResult> &Jobs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s: %s\n", Path.c_str(),
                 std::strerror(errno));
    return;
  }
  std::fprintf(F, "{\"traceEvents\": [\n");
  bool First = true;
  for (size_t I = 0; I < Jobs.size(); ++I)
    for (const JobSpanLine &S : Jobs[I].Spans) {
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"program\": \"%s\"}}",
                   First ? "" : ",\n", S.Name.c_str(), S.Category.c_str(), I,
                   static_cast<double>(S.StartNs) / 1e3,
                   static_cast<double>(S.DurNs) / 1e3,
                   Jobs[I].Program.c_str());
      First = false;
    }
  std::fprintf(F, "\n]}\n");
  std::fclose(F);
  std::printf("wrote spans of %zu traced jobs to %s\n", Jobs.size(),
              Path.c_str());
}

/// Per-layer metrics: per program the median over traced rounds (counts
/// from the counting pass), summed over the programs.
std::vector<Metric> layerMetrics(Bench &B,
                                 const std::vector<JobResult> &Untraced,
                                 const std::vector<JobResult> &Traced,
                                 const std::vector<JobResult> &Counted) {
  std::map<std::string, double> Sum;
  for (const Workload &W : B.Programs) {
    std::map<std::string, std::vector<double>> Values;
    for (const JobResult &J : Traced)
      if (J.Program == W.Name)
        for (const auto &[Name, V] : J.Layers)
          Values[Name].push_back(V);
    for (const auto &[Name, Vs] : Values)
      Sum[Name] += median(Vs);
  }
  for (const JobResult &J : Counted)
    for (const auto &[Name, V] : J.Layers)
      Sum[Name] += V;

  double Rounds = static_cast<double>(Traced.size()) /
                  static_cast<double>(B.Programs.size());
  std::printf("traced rounds %.0f; interp.runs per job %.2f\n", Rounds,
              Sum["interp.runs"] / static_cast<double>(B.Programs.size()));

  auto S = [&Sum](const char *Name) { return Sum[Name]; };
  double Hits = S("search.cache.hits"), Misses = S("search.cache.misses");
  double Applied = S("replication.applied");
  double UntracedRefMs = median(refTimes(Untraced));
  return {
      {"job_ms.p90", pooledP90(Untraced) * speedFactor(refTimes(Untraced)),
       "ms"},
      {"ref_kernel_ms", UntracedRefMs, "ms"},
      {"interp.train_ms", S("interp.train_ms"), "ms"},
      {"interp.measure_ms", S("interp.measure_ms"), "ms"},
      {"interp.runs", S("interp.runs"), "count"},
      {"interp.events", S("interp.events"), "count"},
      {"interp.events_per_s",
       S("interp.exec_ms") > 0 ? S("interp.events") / S("interp.exec_ms") *
                                     1e3
                               : 0.0,
       "1/s"},
      {"core.profiles_ms", S("core.profiles_ms"), "ms"},
      {"core.search_ms", S("core.search_ms"), "ms"},
      {"search.cache.misses", Misses, "count"},
      {"search.cache.hits", Hits, "count"},
      {"search.cache.hit_ratio",
       Hits + Misses > 0 ? Hits / (Hits + Misses) : 0.0, "ratio"},
      {"search.simd.words", S("search.simd.words"), "count"},
      {"search.pruned_by_proof", S("search.pruned_by_proof"), "count"},
      {"core.joint_ms", S("core.joint_ms"), "ms"},
      {"core.replication_ms", S("core.replication_ms"), "ms"},
      {"replications.loop", S("replications.loop"), "count"},
      {"replications.joint", S("replications.joint"), "count"},
      {"replications.correlated", S("replications.correlated"), "count"},
      {"replication.applied_ratio",
       Applied > 0 ? Applied / (Applied + S("replication.skipped")) : 0.0,
       "ratio"},
      {"core.sweep_ms", S("core.sweep_ms"), "ms"},
      {"sweep.points", S("sweep.points"), "count"},
      {"sa.proofs_ms", S("sa.proofs_ms"), "ms"},
      {"sa.soundness.checks", S("sa.soundness.checks"), "count"},
      {"sa.soundness_ms", S("sa.soundness_ms"), "ms"},
      {"ir.verify_ms", S("ir.verify_ms"), "ms"},
      {"analysis_ms", S("analysis_ms"), "ms"},
      {"obs.span_coverage",
       S("job_ms") > 0 ? S("covered_ms") / S("job_ms") : 0.0, "ratio"},
      {"obs.trace_overhead",
       geomean(B.programMedians(Traced)) /
           geomean(B.programMedians(Untraced)),
       "ratio"},
  };
}

int run(const Options &O, Clock::time_point DriverStart) {
  Bench B(O);
  std::printf("workload %s: %s\n", O.BW->Name, O.BW->Why);
  std::printf("seed %llu orders the jobs; %zu programs at input seed %llu, "
              "%llu-event cap, states %u, node budget %llu, 1 search thread, "
              "cold state per job\n",
              static_cast<unsigned long long>(O.Seed), B.Programs.size(),
              static_cast<unsigned long long>(DataSeed),
              static_cast<unsigned long long>(O.BW->Events), States,
              static_cast<unsigned long long>(NodeBudget));

  if (O.SelfTest) {
    B.coldCheck();
    return B.Correct ? 0 : 1;
  }

  std::vector<double> SetupS;
  for (unsigned I = 0; I < SetupPasses; ++I)
    SetupS.push_back(B.setupPass(I == 0 ? DriverStart : Clock::now()));

  std::vector<Metric> Metrics;
  if (!O.Trace) {
    std::vector<std::vector<JobResult>> Out;
    double Wall = B.loop(O.Seconds, {Mode::Timed}, Out);
    const std::vector<JobResult> &Jobs = Out[0];
    uint64_t Passed = 0;
    for (const JobResult &J : Jobs)
      Passed += J.Ok;
    std::vector<double> Medians = B.programMedians(Jobs);
    std::printf("\n%-11s %10s\n", "program", "median ms");
    for (size_t I = 0; I < Medians.size(); ++I)
      std::printf("%-11s %10.3f\n", B.Programs[I].Name, Medians[I]);
    double JobsPerS = static_cast<double>(Jobs.size()) / Wall;
    double F = speedFactor(refTimes(Jobs));
    double SetupF = speedFactor(B.SetupRefMs);
    std::printf("as measured: jobs_per_s %.4f, job_ms.geomean %.4f ms, "
                "job_ms.p90 %.4f ms over %zu jobs, setup_s %.4f s\n",
                JobsPerS, geomean(Medians), pooledP90(Jobs), Jobs.size(),
                median(SetupS));
    std::printf("reference kernel %.4f ms in the loop, %.4f ms in setup; "
                "times below are at its nominal %.1f ms\n",
                ReferenceNominalMs / F, ReferenceNominalMs / SetupF,
                ReferenceNominalMs);
    Metrics.push_back({"jobs_per_s", JobsPerS / F, "1/s"});
    Metrics.push_back({"job_ms.geomean", geomean(Medians) * F, "ms"});
    qualityMetrics(B, Metrics);
    Metrics.push_back({"peak_rss_mb", B.PeakRssMb, "MB"});
    Metrics.push_back({"setup_s", median(SetupS) * SetupF, "s"});
    Metrics.push_back({"ok_ratio",
                       static_cast<double>(Passed) /
                           static_cast<double>(Jobs.size()),
                       "ratio"});
    B.coldCheck();
  } else {
    std::vector<std::vector<JobResult>> Out;
    B.loop(O.Seconds, {Mode::Timed, Mode::Traced}, Out);
    const std::vector<JobResult> &Untraced = Out[0], &Traced = Out[1];
    std::vector<JobResult> Counted = B.countPass();
    B.coldCheck();
    Metrics = layerMetrics(B, Untraced, Traced, Counted);
    if (!O.SpansOut.empty())
      writeSpans(O.SpansOut, Traced);
  }
  printResult(B, Metrics);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Clock::time_point DriverStart = Clock::now();
  // A worker that dies must surface as a failed job, not kill the driver
  // on its next write.
  std::signal(SIGPIPE, SIG_IGN);
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--self-test") {
      O.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      for (const BenchWorkload &BW : BenchWorkloads)
        if (V == BW.Name)
          O.BW = &BW;
      if (!O.BW)
        return usage(("unknown workload " + V).c_str());
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        return usage("--seed takes a whole number");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0.0))
        return usage("--seconds takes a positive number");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--spans-out") {
      O.SpansOut = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!O.BW)
    return usage("--workload is required");
  return run(O, DriverStart);
}
