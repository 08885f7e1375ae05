// Package core is the batch entry point of Data-Juicer: it runs a
// recipe's operator list over a fully resident dataset. Execution is the
// one engine of internal/stream over the dataset as a single in-memory
// shard, so every op runs once over the whole dataset with parallel
// workers, through the physical plan of the unified planner
// (internal/plan), the cache and checkpoints of Sec. 4.1.1 and the
// lineage tracer of Sec. 4.2.
package core

import (
	"time"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// OpStat reports one executed operator; it names the engine's type for
// callers of this package.
type OpStat = stream.OpStat

// Report summarizes one pipeline run.
type Report struct {
	// OpStats holds every planned op in plan order; ops covered by
	// resumed state (the cache or a checkpoint) are cache hits.
	OpStats []OpStat
	Total   time.Duration
	// Resumed reports that the run started from persisted state.
	Resumed  bool
	PlanSize int
}

// InCount returns the sample count entering the first operator (0 for
// an empty plan).
func (r *Report) InCount() int {
	if len(r.OpStats) == 0 {
		return 0
	}
	return r.OpStats[0].InCount
}

// Executor runs a recipe over in-memory datasets.
type Executor struct {
	eng *stream.Engine
}

// NewExecutor validates the recipe and builds its physical plan through
// the unified planner (fusion, measured-cost reordering, placement).
func NewExecutor(r *config.Recipe) (*Executor, error) {
	eng, err := stream.New(r, stream.Options{})
	if err != nil {
		return nil, err
	}
	return &Executor{eng: eng}, nil
}

// Plan returns the physical plan the executor runs.
func (e *Executor) Plan() *plan.Plan { return e.eng.Plan() }

// Tracer returns the lineage tracer (nil unless the recipe enables it).
func (e *Executor) Tracer() *trace.Tracer { return e.eng.Tracer() }

// EnableTelemetry connects the executor to a telemetry run: every op
// application feeds the metric registry, the phase, the shard span, op
// completions and cache hits become journal events, and tracer lineage
// joins the journal. Call before Run.
func (e *Executor) EnableTelemetry(t *telemetry.Run) { e.eng.EnableTelemetry(t) }

// Run executes the plan over d and returns the processed dataset. The
// input dataset is modified in place by Mappers (clone first if the
// original must survive). After a successful run the measured per-op
// costs are folded into the recipe's profile sidecar, so the next run
// plans from them.
func (e *Executor) Run(d *dataset.Dataset) (*dataset.Dataset, *Report, error) {
	// One shard holds all of d; an empty d still needs a positive size.
	src, err := stream.NewDatasetSource(d, max(d.Len(), 1))
	if err != nil {
		return nil, nil, err
	}
	var sink stream.CollectSink
	rep, err := e.eng.Run(src, &sink)
	if err != nil {
		return nil, nil, err
	}
	return sink.Dataset(), &Report{
		OpStats:  rep.OpStats,
		Total:    rep.Total,
		Resumed:  len(rep.OpStats) > 0 && rep.OpStats[0].CacheHit,
		PlanSize: rep.PlanSize,
	}, nil
}
