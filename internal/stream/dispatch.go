package stream

import (
	"errors"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/telemetry"
)

// StageDispatcher routes one shard-local stage — plan ops
// [fromOp, toOp) applied to one shard — to a remote worker and returns
// the surviving samples, the per-op flows measured where the work ran,
// and the 1-based worker lane it ran on. Implementations retry failed
// workers internally; dist.ErrNoWorkers means the whole fleet is gone
// and the engine must run the stage in-process. The coordinator-side
// implementation is internal/remote.Pool.
//
// Optional extensions the engine asserts for: dist.Statser attaches
// fleet statistics to the report, MemberFlusher folds the workers'
// quiesced fused-member attribution into it.
type StageDispatcher interface {
	RunStage(shard, fromOp, toOp int, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error)
}

// MemberFlusher is implemented by dispatchers that can report the
// fleet's end-of-run fused-member attribution.
type MemberFlusher interface {
	FinishMembers() []dist.MemberFlow
}

// dispatchStage ships ops [from, len) of a shard-local run to a worker
// and degrades to in-process execution only when the fleet is dead. It
// persists only the stage's final state along chain c, since
// intermediate datasets never return from the worker; resume walks back
// to whichever state exists.
func (p *phaseRun) dispatchStage(st stage, d *dataset.Dataset, from int, c *opChain, shardIdx int, shardSpan int64) (*dataset.Dataset, error) {
	e := p.eng
	n := len(st.ops)
	out, flows, workerID, err := e.dispatch.RunStage(shardIdx, st.planIdx[from], st.planIdx[n-1]+1, d)
	if errors.Is(err, dist.ErrNoWorkers) {
		// The fleet is dead: finish this stage in-process from where the
		// resumed state left off — same ops, same order, same chain, so
		// the export stays byte-identical.
		return p.runLocalFrom(st, d, from, c, 1, shardIdx, shardSpan)
	}
	if err != nil {
		return nil, err
	}
	for _, f := range flows {
		li := f.PlanIdx - st.planIdx[0]
		dur := time.Duration(f.DurNS)
		p.agg.addOp(f.PlanIdx, int(f.In), int(f.Out), dur, dur, false, 1, 1)
		if e.tele != nil {
			e.tele.Op(f.PlanIdx).Observe(int(f.In), int(f.Out), f.Bytes, dur)
			e.tele.Emit(telemetry.Event{
				Type: telemetry.EvOpComplete, Span: e.tele.NewSpan(), Parent: shardSpan,
				Name: f.Name, Kind: OpKind(st.ops[li]), PlanIdx: f.PlanIdx,
				Phase: p.phase, Shard: shardIdx,
				In: f.In, Out: f.Out, DurNS: f.DurNS,
				Workers: 1, Worker: workerID,
			})
		}
	}
	if err := c.put(n-1, out); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeMemberFlows folds the fleet's fused-member attribution into the
// report, matching members by plan index and name. Entries the
// coordinator never executed locally still exist (TakeMemberStats
// reports all members), so this is a sum, not an append, in the common
// case.
func mergeMemberFlows(stats []OpStat, flows []dist.MemberFlow) {
	for _, f := range flows {
		if f.PlanIdx < 0 || f.PlanIdx >= len(stats) {
			continue
		}
		st := &stats[f.PlanIdx]
		st.Members = mergeMembers(st.Members, []plan.MemberStat{{
			Name: f.Name, In: int(f.In), Out: int(f.Out),
			Samples: int(f.Samples), Duration: time.Duration(f.DurNS),
		}})
	}
}
