package stream

import (
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/plan"
)

// persistProfiles folds one run's measured per-op costs into the plan's
// profile sidecar, so the next plan.Build of the same recipe orders its
// commutative filter groups from real measurements. The engine calls it
// after a successful run with its executed-only aggregates (cache-hit
// shards carry no execution cost and are excluded upstream). Entries are
// keyed by operator identity (name + params hash), fused ops contribute
// their members individually (the planner predicts members, not
// fusions), and cache-hit entries are skipped — a cache read's duration
// is not an execution cost. Costs are normalized to CPU time per sample
// (Duration × Workers / InCount): member attribution and shard-local
// work already sum serial CPU time, while barrier ops and single-shard
// runs measure wall time under N workers, and the sidecar must hold one
// comparable basis.
// No-op when the plan has no sidecar (use_profiles off or no work dir).
func persistProfiles(p *plan.Plan, stats []OpStat) error {
	if p.ProfilePath == "" {
		return nil
	}
	set, err := dist.LoadProfiles(p.ProfilePath)
	if err != nil {
		// A corrupt sidecar is replaced by fresh measurements.
		set = dist.NewProfileSet()
	}
	for _, st := range stats {
		if st.CacheHit || st.InCount <= 0 || st.PlanIndex < 0 || st.PlanIndex >= len(p.Nodes) {
			continue
		}
		node := &p.Nodes[st.PlanIndex]
		if len(st.Members) > 0 {
			for j, ms := range st.Members {
				if j >= len(node.MemberKeys) || ms.Samples <= 0 || ms.In <= 0 {
					continue
				}
				set.Observe(node.MemberKeys[j], ms.Name,
					float64(ms.Duration.Nanoseconds())/float64(ms.Samples),
					float64(ms.Out)/float64(ms.In))
			}
			continue
		}
		if node.Key == "" {
			continue
		}
		workers := st.Workers
		if workers < 1 {
			workers = 1
		}
		set.Observe(node.Key, st.Name,
			float64(st.Duration.Nanoseconds())*float64(workers)/float64(st.InCount),
			float64(st.OutCount)/float64(st.InCount))
	}
	return dist.SaveProfiles(p.ProfilePath, set)
}

// MeasureRunner returns a single-threaded, cache-free, profile-free
// runner over the recipe's operator chain, shaped for dist.Measure: the
// per-shard cost probe must measure the chain as written, not as the
// planner would reorder it from history. Each call runs the engine over
// d as one in-memory shard.
func MeasureRunner(r *config.Recipe) (func(d *dataset.Dataset) (int, error), error) {
	m := *r
	m.NP = 1
	m.UseCache = false
	m.UseCheckpoint = false
	m.UseProfiles = false
	eng, err := New(&m, Options{})
	if err != nil {
		return nil, err
	}
	return func(d *dataset.Dataset) (int, error) {
		src, err := NewDatasetSource(d, max(d.Len(), 1))
		if err != nil {
			return 0, err
		}
		rep, err := eng.Run(src, DiscardSink{})
		if err != nil {
			return 0, err
		}
		return rep.OutCount, nil
	}, nil
}
