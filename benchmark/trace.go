package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/remote"
	"repro/internal/stream"
)

// Span layers. Every span belongs to one; a layer's self time is the
// wall time during which one of its spans was running and none of that
// span's children were.
const (
	layerSetup     = "setup"      // set-up not covered by the spans below
	layerPlan      = "plan"       // core.NewExecutor / stream.New
	layerDistSetup = "dist_setup" // remote.NewPool + Pool.Configure
	layerFormat    = "format"     // source open and decode
	layerEngine    = "engine"     // Executor.Run / Engine.Run outside source, stage and sink calls
	layerDistStage = "dist_stage" // remote.Pool.RunStage
	layerSink      = "sink"       // sink consume/close, format.Export
	layerTeardown  = "teardown"   // journal close, fleet shutdown
)

// layers lists every span layer in report order.
var layers = []string{layerSetup, layerPlan, layerDistSetup, layerFormat, layerEngine,
	layerDistStage, layerSink, layerTeardown}

// span is one timed call into the program, recorded by the benchmark's
// wrappers. Times are seconds since the recorder's origin.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: untraced runs call the same helpers.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	nextID int
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now(), nextID: 1} }

// open reserves a span ID, so children can name their parent before the
// parent's end is known.
func (r *recorder) open() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextID
	r.nextID++
	return id
}

// close records span id over [start, end).
func (r *recorder) close(id, parent int, name, layer string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Start: start.Sub(r.origin).Seconds(), End: end.Sub(r.origin).Seconds()})
	r.mu.Unlock()
}

// timed runs fn inside a span and returns its duration, traced or not.
func (r *recorder) timed(parent int, name, layer string, fn func() error) (time.Duration, error) {
	id := r.open()
	start := time.Now()
	err := fn()
	end := time.Now()
	r.close(id, parent, name, layer, start, end)
	return end.Sub(start), err
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes partitions the root span's wall time across layers. At
// every instant the time goes to the running spans that have no running
// child, split equally between them when several run concurrently
// (source reads, dispatched stages and sink writes overlap in the
// streaming engine). Instants where only the root runs are the
// residual. Children are clipped to their parent's interval, so the
// layer self times plus the residual equal the root's duration.
func selfTimes(spans []span, rootID int) (self map[string]float64, residual, wall float64) {
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	root, ok := byID[rootID]
	self = map[string]float64{}
	if !ok {
		return self, 0, 0
	}
	// Clip every span to its ancestors; drop spans outside the root.
	var live []span
	for _, s := range spans {
		if s.ID == rootID {
			continue
		}
		c := s
		inRoot := false
		for p := s.Parent; p != 0; {
			ps, ok := byID[p]
			if !ok {
				break
			}
			c.Start = max(c.Start, ps.Start)
			c.End = min(c.End, ps.End)
			if p == rootID {
				inRoot = true
				break
			}
			p = ps.Parent
		}
		if inRoot && c.End > c.Start {
			live = append(live, c)
		}
	}
	cuts := []float64{root.Start, root.End}
	for _, s := range live {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Float64s(cuts)
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		active := map[int]bool{}
		for _, s := range live {
			if s.Start <= a && s.End >= b {
				active[s.ID] = true
			}
		}
		hasChild := map[int]bool{}
		for id := range active {
			hasChild[byID[id].Parent] = true
		}
		var leaves []string
		for id := range active {
			if !hasChild[id] {
				leaves = append(leaves, byID[id].Layer)
			}
		}
		if len(leaves) == 0 {
			residual += b - a
			continue
		}
		share := (b - a) / float64(len(leaves))
		for _, l := range leaves {
			self[l] += share
		}
	}
	return self, residual, root.End - root.Start
}

// layerTotals accumulates busy time and volume at the wrapped
// boundaries; wrappers on different goroutines add to it concurrently.
type layerTotals struct {
	mu         sync.Mutex
	readS      float64
	readBytes  int64
	sinkS      float64
	stageS     float64
	workerOpsS float64
	flows      map[string]*opTotals // worker-side flows by op name
}

type opTotals struct {
	s       float64
	in, out int64
}

// tracedSource times every stream.Source.Next call.
type tracedSource struct {
	stream.Source
	rec    *recorder
	parent int
	tot    *layerTotals
}

func (s *tracedSource) Next() (*stream.Shard, error) {
	var sh *stream.Shard
	d, err := s.rec.timed(s.parent, "source.next", layerFormat, func() error {
		var err error
		sh, err = s.Source.Next()
		return err
	})
	var bytes int64
	if sh != nil {
		bytes = sh.Data.TotalBytes()
	}
	s.tot.addRead(d, bytes)
	return sh, err
}

// tracedSink times every stream.Sink Consume and Close call.
type tracedSink struct {
	inner  stream.Sink
	rec    *recorder
	parent int
	tot    *layerTotals
}

func (s *tracedSink) Consume(d *dataset.Dataset) error {
	dur, err := s.rec.timed(s.parent, "sink.consume", layerSink, func() error { return s.inner.Consume(d) })
	s.tot.addSink(dur)
	return err
}

func (s *tracedSink) Close() error {
	dur, err := s.rec.timed(s.parent, "sink.close", layerSink, func() error { return s.inner.Close() })
	s.tot.addSink(dur)
	return err
}

func (t *layerTotals) addRead(d time.Duration, bytes int64) {
	t.mu.Lock()
	t.readS += d.Seconds()
	t.readBytes += bytes
	t.mu.Unlock()
}

func (t *layerTotals) addSink(d time.Duration) {
	t.mu.Lock()
	t.sinkS += d.Seconds()
	t.mu.Unlock()
}

// tracedPool is a stream.StageDispatcher around remote.Pool: it times
// each RunStage and sums the worker-side op flows the call returns. The
// embedded pool still provides the optional interfaces the engine
// asserts for (dist.Statser, stream.MemberFlusher).
type tracedPool struct {
	*remote.Pool
	rec    *recorder
	parent int
	tot    *layerTotals
}

func (p *tracedPool) RunStage(shard, fromOp, toOp int, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error) {
	var (
		out    *dataset.Dataset
		flows  []dist.OpFlow
		worker int
	)
	dur, err := p.rec.timed(p.parent, "pool.run_stage", layerDistStage, func() error {
		var err error
		out, flows, worker, err = p.Pool.RunStage(shard, fromOp, toOp, d)
		return err
	})
	p.tot.mu.Lock()
	defer p.tot.mu.Unlock()
	p.tot.stageS += dur.Seconds()
	for _, f := range flows {
		p.tot.workerOpsS += time.Duration(f.DurNS).Seconds()
		ot := p.tot.flows[f.Name]
		if ot == nil {
			ot = &opTotals{}
			p.tot.flows[f.Name] = ot
		}
		ot.s += time.Duration(f.DurNS).Seconds()
		ot.in += f.In
		ot.out += f.Out
	}
	return out, flows, worker, err
}
