//===- interp/TimelineSink.h - Windowed telemetry trace sink ----*- C++ -*-===//
//
// Part of the bpcr project (Krall, PLDI 1994 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TraceSink adapter that streams the interpreter's branch events into a
/// TimeSeries recorder: one window cell update per executed branch, keyed by
/// the event's position in the trace and the branch's *original* id (so a
/// replicated program's series lines up with attribution, which also folds
/// replicas back onto their source branch).
///
/// A static prediction is scored exactly like the measurement sinks in
/// core/Replication.cpp (anything but an explicit NotTaken annotation
/// predicts taken), so per-window misprediction counts sum to the same
/// totals attribution reports. When the span tracer is live, the sink
/// stamps a wall-clock
/// sample every 256 events so windows can anchor Chrome Trace counter
/// curves; the samples never reach deterministic output.
///
//===----------------------------------------------------------------------===//

#ifndef BPCR_INTERP_TIMELINESINK_H
#define BPCR_INTERP_TIMELINESINK_H

#include "interp/TraceSink.h"
#include "obs/TimeSeries.h"
#include "obs/TraceSpans.h"

namespace bpcr {

/// Fills a TimeSeries from a single interpreter run. Not itself re-entrant
/// (the event index is sink-local state), but several sinks may share one
/// recorder: TimeSeries::record is thread-safe and order-independent.
class TimelineSink : public TraceSink {
public:
  explicit TimelineSink(TimeSeries &TS,
                        SpanTracer &Tracer = SpanTracer::global())
      : TS(TS), Tracer(Tracer), WallOn(Tracer.enabled()) {}

  void onBranch(const Instruction &Br, bool Taken) override {
    record(Br, Taken);
  }

  void onBatch(const BranchBatchEvent *Ev, size_t N) override {
    for (size_t I = 0; I < N; ++I)
      record(*Ev[I].Br, Ev[I].Taken);
  }

  uint64_t eventCount() const { return Index; }

private:
  void record(const Instruction &Br, bool Taken) {
    bool Predicted = Br.Predicted != Prediction::NotTaken;
    uint64_t WallNs = 0;
    if (WallOn && (Index & 255) == 0)
      WallNs = Tracer.elapsedNs();
    TS.record(Index, Br.OrigBranchId, Taken, Predicted != Taken, WallNs);
    ++Index;
  }

  TimeSeries &TS;
  SpanTracer &Tracer;
  bool WallOn;
  uint64_t Index = 0;
};

} // namespace bpcr

#endif // BPCR_INTERP_TIMELINESINK_H
