// Package stream is the execution engine of Data-Juicer. It partitions
// the input into fixed-size shards and pushes every shard through the
// full operator chain inside a worker pool, so shard K can be in op 3
// while shard K+1 is still in op 1 and peak memory stays O(shards in
// flight) instead of O(corpus).
//
// Batch execution (internal/core) is this engine over one in-memory
// shard. A DatasetSource holding its whole dataset as a single shard
// runs one phase whose shard goes through every plan op — deduplicators
// included, since one shard holds every sample — with np workers.
//
// The engine executes the physical plan built by the unified planner
// (internal/plan): execution order, fusion groups, and capability
// placement all come from that one layer. Operators execute through
// OpRunner, which the djworker's shard-local op loop (internal/remote)
// shares. The planned capability decides the
// flow: mappers and filters are shard-local; signature deduplicators
// (ops.StreamDeduper) run against a shared signature index that is
// hash-partitioned so shards probe concurrently — per-partition batches
// still apply in stream order, preserving the batch engine's
// first-occurrence semantics without a barrier (see sigpart.go);
// similarity deduplicators are declared barriers —
// the engine drains the stream, merges the shards in order, applies the
// op, and re-shards.
//
// Persisted state (the cache and checkpoints of the source paper's
// Sec. 4.1.1) is one mechanism: an op chain. Every shard's leading run
// of shard-local ops — every op, for a single-shard run — persists the
// state after each op under a key folded from the shard's content
// through each op's identity, and one resume walk serves every stage
// kind: back from the chain's last key to the newest state on disk,
// which alone is loaded and verified. With use_cache every state is
// kept; with use_checkpoint and the cache off only each chain's newest
// state is, written durably, and a successful run clears them. Either
// way an interrupted run resumes shard by shard.
//
// The schedule is fixed for the whole run: np workers, ShardSize samples
// per shard, and at most MaxInFlight shards resident at once. When the
// sink or an index stage falls behind, the in-flight gate stops the
// source (backpressure).
package stream

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DefaultShardSize is the shard size used when Options leaves it zero.
const DefaultShardSize = 512

// Options tunes the engine.
type Options struct {
	// ShardSize is the number of samples per shard (DefaultShardSize
	// when zero).
	ShardSize int
	// MaxInFlight bounds the shards resident in memory at once —
	// processing, queued, or waiting for ordered emission. Zero means
	// twice the worker count.
	MaxInFlight int
	// Telemetry, when non-nil, connects the engine to a telemetry run:
	// per-op metrics, journal events (phases, shard spans, op
	// completions, cache hits), and tracer lineage.
	Telemetry *telemetry.Run
	// Dispatch, when non-nil, routes shard-local stages to remote
	// workers (the multi-process coordinator mode). Shared-index and
	// barrier stages always run in-process; a dispatcher that reports
	// dist.ErrNoWorkers degrades the stage to in-process execution.
	// See dispatch.go.
	Dispatch StageDispatcher
	// ShardDelay, when non-nil, sleeps the returned duration before a
	// shard enters the phase's stage chain. It exists for conformance
	// testing: randomized (seeded) per-shard delays force shards to reach
	// the partitioned signature index out of order, proving out-of-order
	// claiming keeps exports byte-identical.
	ShardDelay func(phase, shard int) time.Duration
}

// Engine is the streaming execution backend for one recipe.
type Engine struct {
	recipe      *config.Recipe
	plan        *plan.Plan
	phases      []phase
	runner      *OpRunner
	shardSize   int
	maxInFlight int
	np          int
	tele        *telemetry.Run
	dispatch    StageDispatcher
	shardDelay  func(phase, shard int) time.Duration
}

// stage kinds inside one phase.
type stageKind int

const (
	stageLocal stageKind = iota // a run of consecutive shard-local ops
	stageIndex                  // one StreamDeduper behind a shared signature index
)

type stage struct {
	kind        stageKind
	ops         []ops.OP          // stageLocal: the run, in plan order
	planIdx     []int             // plan indexes aligned with ops (or the one dedup)
	dedup       ops.StreamDeduper // stageIndex only
	cacheable   bool              // stageLocal: planner-annotated shard-cacheable run
	spillBudget int64             // stageIndex: planner's spill budget (0 = in-memory)
	partitions  int               // stageIndex: configured index partitions (0 = auto)
}

// phase is a maximal barrier-free segment of the plan. The engine
// pipelines shards through a phase's stages, then (unless it is the
// final phase) merges everything and applies the barrier op.
type phase struct {
	stages     []stage
	barrier    ops.OP // nil for the final phase
	barrierIdx int
}

// splitPhases segments the physical plan at its Barrier ops and groups
// the shard-local runs and shared-index stages in between, reading each
// op's capability and cache annotation straight off the planner's nodes.
func splitPhases(p *plan.Plan) []phase {
	var phases []phase
	var stages []stage
	var run []ops.OP
	var runIdx []int
	runCacheable := false
	flush := func() {
		if len(run) > 0 {
			stages = append(stages, stage{kind: stageLocal, ops: run, planIdx: runIdx, cacheable: runCacheable})
			run, runIdx = nil, nil
		}
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		switch n.Capability {
		case plan.ShardLocal:
			if len(run) == 0 {
				runCacheable = n.StreamCacheable
			}
			run = append(run, n.Op)
			runIdx = append(runIdx, i)
		case plan.SharedIndex:
			flush()
			stages = append(stages, stage{
				kind: stageIndex, dedup: n.Op.(ops.StreamDeduper), planIdx: []int{i},
				spillBudget: n.SpillBudget, partitions: n.IndexPartitions,
			})
		case plan.Barrier:
			flush()
			phases = append(phases, phase{stages: stages, barrier: n.Op, barrierIdx: i})
			stages = nil
		}
	}
	flush()
	phases = append(phases, phase{stages: stages})
	return phases
}

// wholePhases is the single-shard shape of the plan: one phase whose one
// stage applies every op, in plan order, to the whole dataset.
func wholePhases(p *plan.Plan) []phase {
	st := stage{kind: stageLocal, cacheable: true}
	for i := range p.Nodes {
		st.ops = append(st.ops, p.Nodes[i].Op)
		st.planIdx = append(st.planIdx, i)
	}
	return []phase{{stages: []stage{st}}}
}

// singleShard returns the dataset of a source that holds its whole
// input as at most one shard — the batch shape — or nil.
func singleShard(src Source) *dataset.Dataset {
	if ds, ok := src.(*DatasetSource); ok && ds.d.Len() <= ds.shardSize {
		return ds.d
	}
	return nil
}

// New validates the recipe and builds an engine over the physical plan
// produced by the unified planner (internal/plan).
func New(r *config.Recipe, opts Options) (*Engine, error) {
	p, err := plan.Build(r)
	if err != nil {
		return nil, err
	}
	var tracer *trace.Tracer
	if r.EnableTrace {
		tracer = trace.New(0)
	}
	e := &Engine{
		recipe:      r,
		plan:        p,
		phases:      splitPhases(p),
		runner:      NewOpRunner(p.Built(), r.Process, tracer),
		shardSize:   opts.ShardSize,
		maxInFlight: opts.MaxInFlight,
		np:          dataset.Workers(r.NP),
		dispatch:    opts.Dispatch,
		shardDelay:  opts.ShardDelay,
	}
	if e.shardSize <= 0 {
		e.shardSize = DefaultShardSize
	}
	if e.maxInFlight <= 0 {
		e.maxInFlight = 2 * e.np
	}
	if e.maxInFlight < e.np {
		e.maxInFlight = e.np
	}
	e.EnableTelemetry(opts.Telemetry)
	// Barrier deduplicators (minhash/simhash/vector) spill through the
	// op-level machinery; shared-index stages spill through the
	// partitioned index's disk-backed signature sets.
	ConfigureSpill(p, r)
	return e, nil
}

// EnableTelemetry connects the engine to a telemetry run, as
// Options.Telemetry does at construction. Call before Run.
func (e *Engine) EnableTelemetry(t *telemetry.Run) {
	if t == nil {
		return
	}
	e.tele = t
	e.runner = e.runner.WithObserver(AttachTelemetry(t, e.plan))
	if tr := e.runner.Tracer(); tr != nil {
		tr.SetSink(traceJournalSink(t))
	}
}

// ConfigureSpill installs the planner's spill budgets on the plan's
// spill-capable ops. With the cache enabled, spill runs live under the
// cache directory so cache disk accounting covers them; otherwise under
// <work_dir>/spill. No directory is created here — the spill structures
// mkdir lazily, only when an op actually spills.
func ConfigureSpill(p *plan.Plan, r *config.Recipe) {
	if r.WorkDir == "" {
		return
	}
	dir := cache.SpillDir(r.WorkDir, r.UseCache)
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.SpillBudget <= 0 {
			continue
		}
		if sp, ok := n.Op.(ops.Spiller); ok {
			sp.ConfigureSpill(ops.SpillSpec{Dir: dir, BudgetBytes: n.SpillBudget})
		}
	}
}

// Plan returns the physical plan the engine runs.
func (e *Engine) Plan() *plan.Plan { return e.plan }

// Tracer returns the lineage tracer (nil unless the recipe enables it).
// In streaming mode each shard's pass through an op folds into that op's
// single merged event (examples capped at record time), and shared-index
// dedup events carry counts but no example pairs.
func (e *Engine) Tracer() *trace.Tracer { return e.runner.Tracer() }

// Run streams src through the plan into sink and returns the merged
// report. The source is always closed before Run returns; the sink is
// closed only on success — on error, partially written sink state (e.g.
// a sharded sink's .part files) is left as-is rather than finalized,
// and the next successful run over the same prefix cleans it up.
//
// A DatasetSource holding its whole dataset as one shard runs in the
// single-shard shape: one phase whose shard goes through every op with
// np workers along one op chain over the whole plan.
func (e *Engine) Run(src Source, sink Sink) (*Report, error) {
	start := time.Now()
	agg := newAggregator(e.plan)
	var totalIn, totalOut, sourceShards int

	phases, shardSize, single := e.phases, e.shardSize, false
	if d := singleShard(src); d != nil {
		phases, shardSize, single = wholePhases(e.plan), max(d.Len(), 1), true
		e.tele.SetInputTotal(d.Len())
	}
	store, err := e.openStore(single)
	if err != nil {
		src.Close()
		return nil, err
	}

	if e.tele != nil {
		e.tele.Emit(planEvent(e.plan))
		e.tele.SetControls(e.np, shardSize, e.maxInFlight)
	}

	cur := src
	for pi := range phases {
		ph := phases[pi]
		last := pi == len(phases)-1
		var phaseSpan int64
		var phaseStart time.Time
		if e.tele != nil {
			phaseSpan = e.tele.NewSpan()
			phaseStart = time.Now()
			name := "final"
			if ph.barrier != nil {
				name = "to barrier " + ph.barrier.Name()
			}
			e.tele.Emit(telemetry.Event{
				Type: telemetry.EvPhase, Span: phaseSpan, Parent: e.tele.RunSpan(),
				Name: name, Phase: pi,
			})
		}
		var collected []*dataset.Dataset
		emit := func(d *dataset.Dataset) error {
			if last {
				totalOut += d.Len()
				if err := sink.Consume(d); err != nil {
					return err
				}
				e.tele.AddOutput(d.Len())
				return nil
			}
			collected = append(collected, d)
			return nil
		}
		in, shards, err := e.runPhase(pi, phaseSpan, cur, ph.stages, agg, store, single, emit)
		cur.Close()
		if err != nil {
			return nil, err
		}
		if pi == 0 {
			totalIn, sourceShards = in, shards
		}
		if !last {
			// Pipeline barrier: merge the drained shards in order, apply
			// the global op with full parallelism, and re-shard the result.
			merged := dataset.Concat(collected...)
			bStart := time.Now()
			out, err := e.runner.ApplyOp(ph.barrier, merged, e.recipe.NP)
			if err != nil {
				return nil, fmt.Errorf("stream: barrier op %s: %w", ph.barrier.Name(), err)
			}
			bDur := time.Since(bStart)
			agg.addOp(ph.barrierIdx, merged.Len(), out.Len(), bDur, bDur, false,
				dataset.Workers(e.recipe.NP), dataset.Workers(e.recipe.NP))
			if e.tele != nil {
				e.tele.Emit(telemetry.Event{
					Type: telemetry.EvOpComplete, Span: e.tele.NewSpan(), Parent: phaseSpan,
					Name: ph.barrier.Name(), Kind: "barrier", PlanIdx: ph.barrierIdx,
					Phase: pi, In: int64(merged.Len()), Out: int64(out.Len()),
					DurNS: int64(bDur), Workers: dataset.Workers(e.recipe.NP),
				})
				emitSpill(e.tele, ph.barrier, ph.barrierIdx)
			}
			if cur, err = NewDatasetSource(out, e.shardSize); err != nil {
				return nil, err
			}
		}
		// A single-shard run's phase lasts as long as its one shard,
		// whose span_end already records that; the journal keeps one.
		if e.tele != nil && !single {
			e.tele.Emit(telemetry.Event{
				Type: telemetry.EvSpanEnd, Span: phaseSpan, Parent: e.tele.RunSpan(),
				Kind: "phase", Phase: pi, DurNS: int64(time.Since(phaseStart)),
			})
		}
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	rep := agg.finish(sourceShards, totalIn, totalOut, time.Since(start))
	if store != nil && store.kind == "checkpoint" {
		_ = store.Clear()
	}
	// Attribute fused ops to their members (cumulative across executed
	// shards — counters never tick on cache hits) and fold the run's
	// measurements into the profile sidecar so the next plan of this
	// recipe is ordered by them. Persistence reads the executed-only
	// aggregates: cache-resumed shard counts must not dilute measured
	// costs.
	for i := range e.plan.Nodes {
		if ff, ok := e.plan.Nodes[i].Op.(*plan.FusedFilter); ok && !rep.OpStats[i].CacheHit {
			rep.OpStats[i].Members = ff.TakeMemberStats()
		}
	}
	// Distributed runs: fold the fleet's quiesced member attribution in
	// (workers execute the fused ops, so the coordinator-side counters
	// above only saw fallback work) and attach the fleet statistics.
	if e.dispatch != nil {
		if mf, ok := e.dispatch.(MemberFlusher); ok {
			mergeMemberFlows(rep.OpStats, mf.FinishMembers())
		}
		if ds, ok := e.dispatch.(dist.Statser); ok {
			rep.Dist = ds.DistStats()
		}
	}
	// The executed view reads the report's member attribution: each
	// member flow is counted once, in one place.
	exec := agg.execStats()
	for i := range exec {
		exec[i].Members = rep.OpStats[i].Members
	}
	_ = persistProfiles(e.plan, exec)
	return rep, nil
}

// chainStore is where a run's op chains persist their states. The cache
// keeps every state; the checkpoint store (use_checkpoint with the cache
// off) keeps only each chain's newest one, so peak disk stays near the
// 3S of Appendix A.2.
type chainStore struct {
	*cache.Store
	kind string // "cache" or "checkpoint"
}

// openStore opens where this run's op chains persist (nil: nowhere).
// The cache lives under <work_dir>/cache for a single-shard run, whose
// chain spans the whole plan, and under <work_dir>/stream-cache for
// the shard chains of a multi-shard run; checkpoints of either shape
// live under <work_dir>/checkpoint. use_checkpoint makes every write
// durable.
func (e *Engine) openStore(single bool) (*chainStore, error) {
	r := e.recipe
	var dir string
	switch {
	case r.UseCache && single:
		dir = "cache"
	case r.UseCache:
		dir = "stream-cache"
	case r.UseCheckpoint:
		dir = "checkpoint"
	default:
		return nil, nil
	}
	st, err := cache.NewStore(filepath.Join(r.WorkDir, dir), r.CacheCompression)
	if err != nil {
		return nil, err
	}
	st.SetDurable(r.UseCheckpoint)
	kind := "cache"
	if !r.UseCache {
		kind = "checkpoint"
	}
	return &chainStore{Store: st, kind: kind}, nil
}

// opChain is the persisted-state chain of a run of ops over one shard.
// keys[i] names the state after the run's first i ops, folded from key_0
// through each op's identity, so an entry stands for exactly the ops
// that produced it — in this recipe and in any other sharing them.
type opChain struct {
	keys  []string
	store *chainStore
	held  int // keys index of the newest state this chain holds (0: none)
}

// chain builds the op chain of one shard through a run of ops, with
// key_0 from the shard's content alone. A single-shard run's chain
// spans the whole plan, so editing the recipe tail reuses its whole
// persisted prefix.
func (p *phaseRun) chain(st stage, d *dataset.Dataset) *opChain {
	label := "stream-shard"
	if p.single {
		label = "dataset"
	}
	keys := make([]string, 1, len(st.ops)+1)
	keys[0] = cache.Key(d.Fingerprint(), label, nil)
	for i, op := range st.ops {
		keys = append(keys, p.eng.runner.OpCacheKey(keys[i], op))
	}
	return &opChain{keys: keys, store: p.store}
}

// put persists the state after op i of the run. In the checkpoint store
// the chain's previous state is deleted only once the new one is on
// disk, so a recovery point always exists.
func (c *opChain) put(i int, d *dataset.Dataset) error {
	if c == nil {
		return nil
	}
	if err := c.store.Put(c.keys[i+1], d); err != nil {
		return err
	}
	if c.store.kind == "checkpoint" && c.held > 0 {
		if err := c.store.Delete(c.keys[c.held]); err != nil {
			return err
		}
	}
	c.held = i + 1
	return nil
}

// resume finds where a shard's run of ops starts along chain c (nil: at
// op 0). It walks back from the chain's last key to the newest state on
// disk, loading and verifying only that one, and records each op the
// state covers as a cache hit; their counts come from the entry headers
// alone, and ops without an entry carry the resumed count. An entry
// that fails verification is reported, already deleted, and passed
// over. It returns the number of ops covered and the state after them.
func (p *phaseRun) resume(c *opChain, st stage, d *dataset.Dataset, shardIdx int, shardSpan int64) (int, *dataset.Dataset, error) {
	if c == nil {
		return 0, d, nil
	}
	start := time.Now()
	var saved *dataset.Dataset
	k := len(st.ops)
	for ; k > 0; k-- {
		if p.aborted() {
			return 0, nil, errAborted
		}
		got, ok, err := c.store.Get(c.keys[k])
		var corrupt *cache.CorruptError
		if errors.As(err, &corrupt) {
			p.eng.persistCorrupt(c.store.kind, corrupt)
			continue
		}
		if err != nil {
			return 0, nil, err
		}
		if ok {
			saved = got
			break
		}
	}
	if saved == nil {
		return 0, d, nil
	}
	c.held = k
	in := d.Len()
	for i := 0; i < k; i++ {
		out, dur := saved.Len(), time.Duration(0)
		if i == k-1 {
			dur = time.Since(start)
		} else if n, ok := c.store.Count(c.keys[i+1]); ok {
			out = n
		}
		p.eng.cacheHit(p.agg, st.ops[i], st.planIdx[i], p.phase, shardIdx, shardSpan, in, out, dur)
		in = out
	}
	return k, saved, nil
}

// persistCorrupt records a persisted entry that failed verification and
// was deleted: one persist_corrupt journal event and the
// dj_persist_corrupt_total counter. The run recomputes the state.
func (e *Engine) persistCorrupt(kind string, c *cache.CorruptError) {
	if e.tele == nil {
		return
	}
	e.tele.ObservePersistCorrupt(kind)
	e.tele.Emit(telemetry.Event{
		Type: telemetry.EvPersistCorrupt, Parent: e.tele.RunSpan(),
		Kind: kind, Path: c.Path, Why: c.Reason,
	})
}

// cacheHit records plan op idx answered from the cache: the report
// aggregate, the lineage tracer, and the cache_hit event under parent.
func (e *Engine) cacheHit(agg *aggregator, op ops.OP, idx, phase, shard int, parent int64, in, out int, dur time.Duration) {
	agg.addOp(idx, in, out, dur, 0, true, 1, 1)
	e.runner.TraceCacheHit(op, in, out, dur)
	if e.tele != nil {
		e.tele.Op(idx).CacheHit(in, out)
		e.tele.Emit(telemetry.Event{
			Type: telemetry.EvCacheHit, Parent: parent,
			Name: op.Name(), Kind: OpKind(op), PlanIdx: idx, Phase: phase, Shard: shard,
			In: int64(in), Out: int64(out), DurNS: int64(dur),
		})
	}
}

// errAborted is returned by shard processing interrupted by another
// shard's failure; the original error is already recorded.
var errAborted = fmt.Errorf("stream: run aborted")

// phaseRun holds the shared state of one pipelined phase execution.
type phaseRun struct {
	eng     *Engine
	phase   int
	span    int64 // the phase's journal span (0 without telemetry)
	stages  []stage
	store   *chainStore        // where op chains persist (nil: nowhere)
	single  bool               // the single-shard shape: one chain over the whole plan
	indexes map[int]*partIndex // stage index -> partitioned signature index
	agg     *aggregator
	gate    *gate

	abort     chan struct{}
	abortOnce sync.Once
	runErr    error
}

func (p *phaseRun) fail(err error) {
	if err == errAborted {
		return
	}
	p.abortOnce.Do(func() {
		p.runErr = err
		close(p.abort)
		// Unblock the source's backpressure wait. Index resolution waits
		// select on p.abort directly; no further wakeup is needed.
		p.gate.close()
	})
}

func (p *phaseRun) aborted() bool {
	select {
	case <-p.abort:
		return true
	default:
		return false
	}
}

// gate bounds the shards in flight — processing, queued, or waiting for
// ordered emission. The source blocks in acquire until the emitter
// releases a slot (backpressure); close aborts every waiter.
type gate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	limit    int
	inflight int
	closed   bool
}

func newGate(limit int) *gate {
	if limit < 1 {
		limit = 1
	}
	g := &gate{limit: limit}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until a slot is free (or the gate closes — then false).
// blocked, when non-nil, receives the time spent waiting if the call had
// to wait at all.
func (g *gate) acquire(blocked func(time.Duration)) bool {
	g.mu.Lock()
	waited := false
	var start time.Time
	for g.inflight >= g.limit && !g.closed {
		if !waited {
			waited = true
			start = time.Now()
		}
		g.cond.Wait()
	}
	if waited && blocked != nil {
		blocked(time.Since(start))
	}
	if g.closed {
		g.mu.Unlock()
		return false
	}
	g.inflight++
	g.mu.Unlock()
	return true
}

// release frees one slot.
func (g *gate) release() {
	g.mu.Lock()
	g.inflight--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// close aborts the gate: every current and future acquire returns false.
func (g *gate) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// runPhase pipelines every shard of src through the phase's stages and
// hands the results to emit in shard order. It returns the total samples
// and shards read from src.
func (e *Engine) runPhase(phaseIdx int, phaseSpan int64, src Source, stages []stage, agg *aggregator,
	store *chainStore, single bool, emit func(*dataset.Dataset) error) (inCount, shardCount int, err error) {

	p := &phaseRun{
		eng: e, phase: phaseIdx, span: phaseSpan, stages: stages, agg: agg, store: store, single: single,
		indexes: map[int]*partIndex{},
		abort:   make(chan struct{}),
		gate:    newGate(e.maxInFlight),
	}
	for i, st := range stages {
		if st.kind == stageIndex {
			nparts := resolvePartitions(st.partitions, e.np)
			stageIdx, stg := i, st
			p.indexes[i] = newPartIndex(nparts, e.np, func(k int) sigIndex {
				return e.newSigIndex(phaseIdx, stageIdx, k, nparts, stg)
			})
			if e.tele != nil {
				e.tele.ObserveIndexPartitions(st.dedup.Name(), nparts)
			}
		}
	}
	// Whatever happens below, the signature indexes release their spill
	// files when the phase ends; spill and contention activity is
	// journaled first.
	defer func() {
		for si, x := range p.indexes {
			st := stages[si]
			sst := x.Stats()
			_ = x.Close()
			if e.tele == nil {
				continue
			}
			if sst.Runs > 0 {
				e.tele.ObserveSpill(st.dedup.Name(), sst.Runs, sst.Bytes)
				e.tele.Emit(telemetry.Event{
					Type: telemetry.EvSpill, Parent: phaseSpan,
					Name: st.dedup.Name(), PlanIdx: st.planIdx[0], Phase: phaseIdx,
					Bytes: sst.Bytes, SpillRuns: sst.Runs,
				})
			}
			waits, wait := x.WaitStats()
			e.tele.Emit(telemetry.Event{
				Type: telemetry.EvIndex, Parent: phaseSpan,
				Name: st.dedup.Name(), PlanIdx: st.planIdx[0], Phase: phaseIdx,
				Partitions: len(x.parts), Waits: waits, DurNS: int64(wait),
			})
		}
	}()

	// The done buffer holds the whole in-flight population, so workers
	// never block handing a finished shard to the emitter.
	work := make(chan *Shard)
	done := make(chan *Shard, e.maxInFlight)
	counts := make(chan [2]int, 1)

	// Reader: pulls shards from the source, bounded by the in-flight gate
	// (released by the emitter once a shard leaves the phase). This is
	// where backpressure lands: when the sink or an index stage falls behind,
	// slots stop freeing and the reader blocks in acquire.
	go func() {
		defer close(work)
		in, n := 0, 0
		defer func() { counts <- [2]int{in, n} }()
		var onBlocked func(time.Duration)
		if e.tele != nil {
			onBlocked = e.tele.ObserveBackpressure
		}
		for {
			if !p.gate.acquire(onBlocked) {
				return // aborted
			}
			sh, err := src.Next()
			if err == io.EOF {
				p.gate.release()
				return
			}
			if err != nil {
				p.fail(err)
				return
			}
			if e.tele != nil && phaseIdx == 0 {
				e.tele.AddInput(sh.Data.Len())
			}
			sh.Index = n // dense per-phase indexes, whatever the source says
			n++
			in += sh.Data.Len()
			select {
			case work <- sh:
			case <-p.abort:
				return
			}
		}
	}()

	// Workers: each shard runs the whole stage chain on one worker, so
	// different shards occupy different ops concurrently. The work
	// channel delivers shards in index order, which guarantees the
	// lowest in-flight shard is always held by some worker — that shard's
	// index deposits apply immediately at every partition, so resolution
	// waits are deadlock-free.
	var wg sync.WaitGroup
	for w := 0; w < e.np; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range work {
				if p.aborted() {
					continue
				}
				if err := p.processShard(sh); err != nil {
					p.fail(err)
					continue
				}
				done <- sh
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	// Ordered emitter (caller goroutine): reorders completed shards and
	// releases their in-flight slots.
	next := 0
	buf := map[int]*dataset.Dataset{}
	for sh := range done {
		buf[sh.Index] = sh.Data
		for {
			d, ok := buf[next]
			if !ok {
				break
			}
			delete(buf, next)
			next++
			if !p.aborted() {
				if err := emit(d); err != nil {
					p.fail(err)
				}
			}
			p.gate.release()
		}
	}
	res := <-counts
	if p.runErr != nil {
		return 0, 0, p.runErr
	}
	return res[0], res[1], nil
}

// processShard pushes one shard through the phase's stages, recording
// per-op aggregates. Ops run single-threaded within the shard —
// parallelism lives across shards.
func (p *phaseRun) processShard(sh *Shard) error {
	e := p.eng
	if e.shardDelay != nil {
		if d := e.shardDelay(p.phase, sh.Index); d > 0 {
			time.Sleep(d)
		}
	}
	start := time.Now()
	in := sh.Data.Len()
	d := sh.Data
	resumed := false
	var shardSpan int64
	if e.tele != nil {
		shardSpan = e.tele.NewSpan()
	}
	for si, st := range p.stages {
		var err error
		switch st.kind {
		case stageLocal:
			// Only planner-annotated runs persist their states: their
			// results are pure functions of the shard's content, while
			// runs behind a shared-index stage depend on other shards'
			// signatures (see the plan's cache-boundary pass).
			var hit bool
			d, hit, err = p.runLocal(st, d, st.cacheable && p.store != nil, sh.Index, shardSpan)
			resumed = resumed || hit
		case stageIndex:
			d, err = p.runIndex(si, st, sh.Index, d, shardSpan)
		}
		if err != nil {
			return err
		}
	}
	sh.Data = d
	p.agg.addShard(ShardStat{
		Phase: p.phase, Index: sh.Index, In: in, Out: d.Len(),
		Duration: time.Since(start), CacheHit: resumed,
	})
	if e.tele != nil {
		e.tele.ObserveShard(in)
		e.tele.Emit(telemetry.Event{
			Type: telemetry.EvSpanEnd, Span: shardSpan, Parent: p.span,
			Kind: "shard", Phase: p.phase, Shard: sh.Index,
			In: int64(in), Out: int64(d.Len()),
			DurNS: int64(time.Since(start)), CacheHit: resumed,
		})
	}
	return nil
}

// runLocal applies one run of ops to a shard, first resuming from the
// newest state its op chain holds when persist is set. A single-shard
// run applies every plan op with np workers; otherwise the shard-local
// ops run serially, or on a worker of the fleet when the engine
// dispatches. It reports whether the whole run was resumed.
func (p *phaseRun) runLocal(st stage, d *dataset.Dataset, persist bool, shardIdx int, shardSpan int64) (*dataset.Dataset, bool, error) {
	var c *opChain
	if persist {
		c = p.chain(st, d)
	}
	from, d, err := p.resume(c, st, d, shardIdx, shardSpan)
	if err != nil {
		return nil, false, err
	}
	switch {
	case from == len(st.ops):
		return d, from > 0, nil
	case p.single:
		d, err = p.runLocalFrom(st, d, from, c, p.eng.recipe.NP, shardIdx, shardSpan)
	case p.eng.dispatch != nil:
		d, err = p.dispatchStage(st, d, from, c, shardIdx, shardSpan)
	default:
		d, err = p.runLocalFrom(st, d, from, c, 1, shardIdx, shardSpan)
	}
	return d, false, err
}

// runLocalFrom applies ops [from, len) of a run to d with np workers
// each, persisting every state along chain c (nil: none). It is also
// the in-process fallback of a dispatched stage whose fleet died.
func (p *phaseRun) runLocalFrom(st stage, d *dataset.Dataset, from int, c *opChain, np, shardIdx int, shardSpan int64) (*dataset.Dataset, error) {
	e := p.eng
	workers := dataset.Workers(np)
	for i := from; i < len(st.ops); i++ {
		op := st.ops[i]
		if p.aborted() {
			return nil, errAborted
		}
		opStart := time.Now()
		inCount := d.Len()
		out, err := e.runner.ApplyOp(op, d, np)
		if err != nil {
			return nil, fmt.Errorf("stream: op %d (%s): %w", st.planIdx[i], op.Name(), err)
		}
		d = out
		if err := c.put(i, d); err != nil {
			return nil, err
		}
		opDur := time.Since(opStart)
		p.agg.addOp(st.planIdx[i], inCount, d.Len(), opDur, opDur, false, workers, workers)
		if e.tele != nil {
			e.tele.Emit(telemetry.Event{
				Type: telemetry.EvOpComplete, Span: e.tele.NewSpan(), Parent: shardSpan,
				Name: op.Name(), Kind: OpKind(op), PlanIdx: st.planIdx[i],
				Phase: p.phase, Shard: shardIdx,
				In: int64(inCount), Out: int64(d.Len()),
				DurNS: int64(opDur), Workers: workers,
			})
			emitSpill(e.tele, op, st.planIdx[i])
		}
	}
	return d, nil
}

// runIndex passes one shard through a shared-signature dedup stage:
// signatures are computed outside any lock, routed to the stage's
// partitioned index, and the shard blocks only until every partition has
// resolved its in-order prefix through this shard (see sigpart.go).
func (p *phaseRun) runIndex(si int, st stage, shardIdx int, d *dataset.Dataset, shardSpan int64) (*dataset.Dataset, error) {
	opStart := time.Now()
	var inBytes int64
	if p.eng.tele != nil {
		inBytes = d.TotalBytes()
	}
	// Signatures are pure per-sample work: compute them before touching
	// the shared index so partitions serialize only membership probes.
	sigs := make([]uint64, d.Len())
	for i, s := range d.Samples {
		sigs[i] = st.dedup.Signature(s)
	}
	novel := make([]bool, len(sigs))
	x := p.indexes[si]
	wait, err := x.Claim(shardIdx, sigs, novel, p.abort)
	if err == errAborted {
		return nil, errAborted
	}
	if err != nil {
		return nil, fmt.Errorf("stream: op %d (%s) signature index: %w",
			st.planIdx[0], st.dedup.Name(), err)
	}
	var kept []*sample.Sample
	for i, s := range d.Samples {
		if novel[i] {
			kept = append(kept, s)
		}
	}

	out := dataset.New(kept)
	// The report keeps the wall view (wait included) and the actual probe
	// parallelism; the executed view feeding profile persistence excludes
	// the resolution wait and stays at parallelism 1 — each shard's
	// duration here is single-goroutine CPU time.
	p.agg.addOp(st.planIdx[0], d.Len(), out.Len(), time.Since(opStart),
		time.Since(opStart)-wait, false, x.probeWorkers, 1)
	if t := p.eng.tele; t != nil {
		// The shared-index path bypasses the runner observer: feed the
		// instruments explicitly, with the resolution wait excluded from
		// the cost signal — queueing is not work.
		t.Op(st.planIdx[0]).Observe(d.Len(), out.Len(), inBytes, time.Since(opStart)-wait)
		if wait > 0 {
			t.ObserveIndexWait(st.dedup.Name(), wait)
		}
		t.Emit(telemetry.Event{
			Type: telemetry.EvOpComplete, Span: t.NewSpan(), Parent: shardSpan,
			Name: st.dedup.Name(), Kind: "deduplicator", PlanIdx: st.planIdx[0],
			Phase: p.phase, Shard: shardIdx,
			In: int64(d.Len()), Out: int64(out.Len()),
			DurNS: int64(time.Since(opStart)), Workers: x.probeWorkers,
		})
	}
	if tr := p.eng.runner.Tracer(); tr != nil {
		tr.Record(trace.Event{
			OpName: st.dedup.Name(), Kind: "deduplicator",
			InCount: d.Len(), OutCount: out.Len(), Duration: time.Since(opStart),
		})
	}
	return out, nil
}
