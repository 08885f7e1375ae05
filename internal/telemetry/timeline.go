package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// OpTimeline aggregates one operator's wall-time attribution across the
// whole run (all shards / batches).
type OpTimeline struct {
	Name         string
	PlanIdx      int
	In, Out      int64
	Wall         time.Duration
	Applications int
	CacheHits    int
	SpillRuns    int64
	SpillBytes   int64

	// Partitioned signature index contention (index events, schema v4).
	Partitions int           // partition count (0 = not a shared-index op)
	IndexWaits int64         // shard claims that blocked on resolution
	IndexWait  time.Duration // their summed wait
}

// PhaseTimeline aggregates one pipeline phase: its own span duration
// plus shard statistics observed inside it.
type PhaseTimeline struct {
	Phase        int
	Name         string
	Dur          time.Duration
	Shards       int
	ShardWall    time.Duration
	MaxShardWall time.Duration
	SlowestShard int
}

// WorkerTimeline aggregates one djworker's lane of a distributed run:
// the stage work routed to it, the failures charged against it, and its
// activity span inside the run (for the lane bar).
type WorkerTimeline struct {
	Worker       int
	Addr         string
	Ops          int   // op_complete events executed on this worker
	In, Out      int64 // sample flow through those ops
	Wall         time.Duration
	Retries      int // failed attempts charged against this worker
	Steals       int // shards this worker stole from another's assignment
	FirstTS      int64
	LastTS       int64
	Disconnected bool // at least one retry marked it suspect

	// Wire-transport accounting (worker_wire events, schema v3).
	DeltaStages int   // stages answered with a keep-mask delta
	BytesSent   int64 // on-wire bytes coordinator -> worker
	BytesRecv   int64 // on-wire bytes worker -> coordinator
}

// Timeline is the reconstruction of one run from its journal.
type Timeline struct {
	RunID     string
	Backend   string
	Recipe    string
	Input     string
	Status    string
	Error     string
	In, Out   int64
	Dur       time.Duration
	Shards    int
	Resumed   int
	Truncated bool // journal had no run_end (crash or live tail)

	Ops     []OpTimeline
	Phases  []PhaseTimeline
	Passes  []PlanPass
	Workers []WorkerTimeline // distributed runs: one lane per djworker
	Corrupt []Event          // persist_corrupt: discarded entries, in order

	startTS int64 // first event timestamp (lane bar origin)
	endTS   int64 // last event timestamp
}

// BuildTimeline folds a validated event stream into per-op and
// per-shard wall-time attribution. Journals without a run_end (crashed
// or still-running jobs) produce a Timeline with Truncated set.
func BuildTimeline(events []Event) (*Timeline, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("empty journal")
	}
	tl := &Timeline{Truncated: true}
	ops := map[string]*OpTimeline{}
	phases := map[int]*PhaseTimeline{}
	phaseOf := map[int64]int{} // phase span ID -> phase number
	workers := map[int]*WorkerTimeline{}
	var opOrder []string
	laneOf := func(id int) *WorkerTimeline {
		w, ok := workers[id]
		if !ok {
			w = &WorkerTimeline{Worker: id, FirstTS: 1<<63 - 1}
			workers[id] = w
		}
		return w
	}
	touch := func(w *WorkerTimeline, ts int64) {
		if ts < w.FirstTS {
			w.FirstTS = ts
		}
		if ts > w.LastTS {
			w.LastTS = ts
		}
	}

	tl.startTS = events[0].TS
	for _, e := range events {
		if e.TS > tl.endTS {
			tl.endTS = e.TS
		}
		switch e.Type {
		case EvRunStart:
			tl.RunID, tl.Backend, tl.Recipe, tl.Input = e.RunID, e.Backend, e.Recipe, e.Input
		case EvPlan:
			tl.Passes = e.Passes
		case EvPhase:
			ph, ok := phases[e.Phase]
			if !ok {
				ph = &PhaseTimeline{Phase: e.Phase, Name: e.Name}
				phases[e.Phase] = ph
			}
			phaseOf[e.Span] = e.Phase
		case EvSpanEnd:
			switch e.Kind {
			case "shard":
				ph, ok := phases[e.Phase]
				if !ok {
					ph = &PhaseTimeline{Phase: e.Phase}
					phases[e.Phase] = ph
				}
				ph.Shards++
				d := time.Duration(e.DurNS)
				ph.ShardWall += d
				if d > ph.MaxShardWall {
					ph.MaxShardWall = d
					ph.SlowestShard = e.Shard
				}
			case "phase":
				if n, ok := phaseOf[e.Span]; ok {
					phases[n].Dur = time.Duration(e.DurNS)
				}
			}
		case EvOpComplete:
			o, ok := ops[e.Name]
			if !ok {
				o = &OpTimeline{Name: e.Name, PlanIdx: e.PlanIdx}
				ops[e.Name] = o
				opOrder = append(opOrder, e.Name)
			}
			o.In += e.In
			o.Out += e.Out
			o.Wall += time.Duration(e.DurNS)
			o.Applications++
			if e.CacheHit {
				o.CacheHits++
			}
			if e.Worker > 0 {
				w := laneOf(e.Worker)
				w.Ops++
				w.In += e.In
				w.Out += e.Out
				w.Wall += time.Duration(e.DurNS)
				touch(w, e.TS)
			}
		case EvSpill:
			o, ok := ops[e.Name]
			if !ok {
				o = &OpTimeline{Name: e.Name, PlanIdx: e.PlanIdx}
				ops[e.Name] = o
				opOrder = append(opOrder, e.Name)
			}
			o.SpillRuns += e.SpillRuns
			o.SpillBytes += e.Bytes
		case EvIndex:
			o, ok := ops[e.Name]
			if !ok {
				o = &OpTimeline{Name: e.Name, PlanIdx: e.PlanIdx}
				ops[e.Name] = o
				opOrder = append(opOrder, e.Name)
			}
			if e.Partitions > o.Partitions {
				o.Partitions = e.Partitions
			}
			o.IndexWaits += e.Waits
			o.IndexWait += time.Duration(e.DurNS)
		case EvPersistCorrupt:
			tl.Corrupt = append(tl.Corrupt, e)
		case EvWorkerStart:
			w := laneOf(e.Worker)
			w.Addr = e.Addr
			touch(w, e.TS)
		case EvWorkerWire:
			w := laneOf(e.Worker)
			w.DeltaStages += e.DeltaStages
			w.BytesSent += e.BytesSent
			w.BytesRecv += e.BytesRecv
			touch(w, e.TS)
		case EvWorkerRetry:
			w := laneOf(e.Worker)
			w.Retries++
			w.Disconnected = true
			touch(w, e.TS)
		case EvShardSteal:
			w := laneOf(e.Worker)
			w.Steals++
			touch(w, e.TS)
		case EvRunEnd:
			tl.Truncated = false
			tl.Status, tl.Error = e.Status, e.Error
			tl.In, tl.Out = e.In, e.Out
			tl.Dur = time.Duration(e.DurNS)
			tl.Shards, tl.Resumed = e.Shards, e.Resumed
		}
	}

	for _, name := range opOrder {
		tl.Ops = append(tl.Ops, *ops[name])
	}
	sort.SliceStable(tl.Ops, func(i, j int) bool { return tl.Ops[i].PlanIdx < tl.Ops[j].PlanIdx })
	for _, ph := range phases {
		if ph.Dur == 0 {
			// No phase span_end: a single-shard run's phase, or the open
			// phase of a truncated journal. It lasted at least as long
			// as its slowest shard.
			ph.Dur = ph.MaxShardWall
		}
		tl.Phases = append(tl.Phases, *ph)
	}
	sort.Slice(tl.Phases, func(i, j int) bool { return tl.Phases[i].Phase < tl.Phases[j].Phase })
	for _, w := range workers {
		tl.Workers = append(tl.Workers, *w)
	}
	sort.Slice(tl.Workers, func(i, j int) bool { return tl.Workers[i].Worker < tl.Workers[j].Worker })
	if tl.Truncated && len(events) > 0 {
		last := events[len(events)-1]
		first := events[0]
		tl.Dur = time.Duration(last.TS - first.TS)
	}
	return tl, nil
}

// Render formats the timeline for the terminal: headline, per-op wall
// share bars, phase/shard attribution, and plan pass durations.
func (tl *Timeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %s [%s] %s <- %s\n", tl.RunID, tl.Backend, tl.Recipe, tl.Input)
	switch {
	case tl.Truncated:
		fmt.Fprintf(&b, "  status: incomplete journal (no run_end); ~%s of events\n",
			tl.Dur.Round(time.Millisecond))
	case tl.Status == "ok":
		fmt.Fprintf(&b, "  status: ok, %d -> %d samples in %s", tl.In, tl.Out,
			tl.Dur.Round(time.Millisecond))
		if tl.Shards > 0 {
			fmt.Fprintf(&b, ", %d shards", tl.Shards)
		}
		if tl.Resumed > 0 {
			fmt.Fprintf(&b, ", %d resumed", tl.Resumed)
		}
		b.WriteByte('\n')
	default:
		fmt.Fprintf(&b, "  status: %s after %s: %s\n", tl.Status,
			tl.Dur.Round(time.Millisecond), tl.Error)
	}

	if len(tl.Passes) > 0 {
		b.WriteString("\nplan passes:\n")
		for _, p := range tl.Passes {
			fmt.Fprintf(&b, "  %-28s %10s  %s\n", p.Name,
				time.Duration(p.DurNS).Round(time.Microsecond), p.Detail)
		}
	}

	if len(tl.Ops) > 0 {
		var total time.Duration
		for _, o := range tl.Ops {
			total += o.Wall
		}
		b.WriteString("\nper-op wall time:\n")
		for _, o := range tl.Ops {
			share := 0.0
			if total > 0 {
				share = float64(o.Wall) / float64(total)
			}
			bar := strings.Repeat("#", int(share*30+0.5))
			cache := ""
			if o.CacheHits > 0 {
				cache = fmt.Sprintf(" [%d cached]", o.CacheHits)
			}
			fmt.Fprintf(&b, "  %-44s %10s %5.1f%% |%-30s| %d -> %d (%d apps)%s\n",
				o.Name, o.Wall.Round(time.Microsecond), share*100, bar,
				o.In, o.Out, o.Applications, cache)
		}
	}

	var spilled []OpTimeline
	for _, o := range tl.Ops {
		if o.SpillRuns > 0 || o.SpillBytes > 0 {
			spilled = append(spilled, o)
		}
	}
	if len(spilled) > 0 {
		b.WriteString("\nspill (disk-backed dedup indexes):\n")
		for _, o := range spilled {
			fmt.Fprintf(&b, "  %-44s spilled %d runs, %.1f MiB\n",
				o.Name, o.SpillRuns, float64(o.SpillBytes)/(1<<20))
		}
	}

	var indexed []OpTimeline
	for _, o := range tl.Ops {
		if o.Partitions > 0 {
			indexed = append(indexed, o)
		}
	}
	if len(indexed) > 0 {
		b.WriteString("\nindex contention (partitioned signature indexes):\n")
		for _, o := range indexed {
			fmt.Fprintf(&b, "  %-44s %d partitions, %d blocked claims, %s waiting\n",
				o.Name, o.Partitions, o.IndexWaits, o.IndexWait.Round(time.Microsecond))
		}
	}

	if len(tl.Corrupt) > 0 {
		b.WriteString("\npersisted state discarded (failed verification, recomputed):\n")
		for _, e := range tl.Corrupt {
			fmt.Fprintf(&b, "  %-10s %s: %s\n", e.Kind, e.Path, e.Why)
		}
	}

	if len(tl.Workers) > 0 {
		b.WriteString("\nworkers:\n")
		const width = 30
		span := tl.endTS - tl.startTS
		for _, w := range tl.Workers {
			bar := []byte(strings.Repeat(".", width))
			if span > 0 && w.LastTS >= w.FirstTS {
				lo := int(float64(w.FirstTS-tl.startTS) / float64(span) * width)
				hi := int(float64(w.LastTS-tl.startTS) / float64(span) * width)
				if lo < 0 {
					lo = 0
				}
				if hi >= width {
					hi = width - 1
				}
				for i := lo; i <= hi; i++ {
					bar[i] = '#'
				}
			}
			flags := ""
			if w.Disconnected {
				flags = " DISCONNECTED"
			}
			fmt.Fprintf(&b, "  w%-2d %-21s |%s| %d ops %d -> %d, %s busy, %d retries, %d steals%s\n",
				w.Worker, w.Addr, bar, w.Ops, w.In, w.Out,
				w.Wall.Round(time.Microsecond), w.Retries, w.Steals, flags)
		}
	}

	wired := false
	for _, w := range tl.Workers {
		if w.BytesSent > 0 || w.BytesRecv > 0 {
			wired = true
			break
		}
	}
	if wired {
		b.WriteString("\nwire (dispatch transport):\n")
		for _, w := range tl.Workers {
			if w.BytesSent == 0 && w.BytesRecv == 0 {
				continue
			}
			delta := ""
			if w.DeltaStages > 0 {
				delta = fmt.Sprintf(", %d delta stages", w.DeltaStages)
			}
			fmt.Fprintf(&b, "  w%-2d sent %.1f MiB recv %.1f MiB%s\n",
				w.Worker, float64(w.BytesSent)/(1<<20), float64(w.BytesRecv)/(1<<20), delta)
		}
	}

	if len(tl.Phases) > 0 {
		b.WriteString("\nphases:\n")
		for _, ph := range tl.Phases {
			fmt.Fprintf(&b, "  phase %d %-24s %10s", ph.Phase, ph.Name,
				ph.Dur.Round(time.Millisecond))
			if ph.Shards > 0 {
				mean := ph.ShardWall / time.Duration(ph.Shards)
				fmt.Fprintf(&b, "  shards=%d mean=%s max=%s (shard %d)",
					ph.Shards, mean.Round(time.Microsecond),
					ph.MaxShardWall.Round(time.Microsecond), ph.SlowestShard)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
