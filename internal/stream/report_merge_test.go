package stream

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/plan"
)

func sampleReport(seed int) *Report {
	d := time.Duration(seed) * time.Millisecond
	return &Report{
		OpStats: []OpStat{
			{Name: "clean", PlanIndex: 0, InCount: 10 * seed, OutCount: 9 * seed, Duration: d, Workers: 1},
			{Name: "fused_filter", PlanIndex: 1, InCount: 9 * seed, OutCount: 5 * seed, Duration: 2 * d, Workers: 1,
				Members: []plan.MemberStat{
					{Name: "length_filter", In: 9 * seed, Out: 7 * seed, Samples: 9 * seed, Duration: d},
					{Name: "alpha_filter", In: 7 * seed, Out: 5 * seed, Samples: 7 * seed, Duration: d},
				}},
		},
		Shards:        []ShardStat{{Phase: 0, Index: seed, In: 10 * seed, Out: 5 * seed}},
		ShardCount:    seed,
		InCount:       10 * seed,
		OutCount:      5 * seed,
		ResumedShards: seed % 2,
		PlanSize:      2,
		Total:         d,
		Dist: &dist.RunStats{
			Workers: []dist.WorkerRunStat{{Worker: 1 + seed%2, Stages: seed, Steals: seed % 3}},
			Retries: seed % 2,
			Steals:  seed % 3,
		},
	}
}

// TestReportMergeAssociative checks (a+b)+c == a+(b+c) across every
// aggregate, which is what lets partial reports combine in any order.
func TestReportMergeAssociative(t *testing.T) {
	left := sampleReport(1)
	left.Merge(sampleReport(2))
	left.Merge(sampleReport(3))

	bc := sampleReport(2)
	bc.Merge(sampleReport(3))
	right := sampleReport(1)
	right.Merge(bc)

	// Shard order differs by association; compare as multisets.
	sortKey := func(s ShardStat) int { return s.Phase*1_000_000 + s.Index }
	normalize := func(r *Report) {
		for i := range r.Shards {
			for j := i + 1; j < len(r.Shards); j++ {
				if sortKey(r.Shards[j]) < sortKey(r.Shards[i]) {
					r.Shards[i], r.Shards[j] = r.Shards[j], r.Shards[i]
				}
			}
		}
	}
	normalize(left)
	normalize(right)
	if !reflect.DeepEqual(left, right) {
		t.Fatalf("merge not associative:\n  (a+b)+c = %+v\n  a+(b+c) = %+v", left, right)
	}
	if left.ShardCount != 6 || left.InCount != 60 || left.OutCount != 30 {
		t.Fatalf("merged totals wrong: %+v", left)
	}
	if got := left.OpStats[1].Members[0].In; got != 9+18+27 {
		t.Fatalf("member in = %d, want 54", got)
	}
	if left.Dist.Workers[0].Worker != 1 || left.Dist.Workers[1].Worker != 2 {
		t.Fatalf("dist workers not sorted by ID: %+v", left.Dist.Workers)
	}
}

// TestReportMergeDoesNotMutateOther guards the "o is not mutated"
// contract — fused members in particular must be copied, not aliased.
func TestReportMergeDoesNotMutateOther(t *testing.T) {
	o := sampleReport(2)
	before := sampleReport(2)
	r := sampleReport(1)
	r.Merge(o)
	r.OpStats[1].Members[0].In = 999999
	r.Dist.Workers[0].Stages = 999999
	if !reflect.DeepEqual(o, before) {
		t.Fatalf("Merge mutated its argument:\n  got  %+v\n  want %+v", o, before)
	}
}

// TestReportMergeConcurrent merges partial reports from many goroutines
// into one accumulator under a mutex — the coordinator's pattern when
// worker journals land asynchronously. Run with -race.
func TestReportMergeConcurrent(t *testing.T) {
	acc := &Report{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	const n = 16
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			part := sampleReport(seed)
			mu.Lock()
			acc.Merge(part)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	wantShards := n * (n + 1) / 2
	if acc.ShardCount != wantShards {
		t.Fatalf("ShardCount = %d, want %d", acc.ShardCount, wantShards)
	}
	if acc.InCount != 10*wantShards || acc.OutCount != 5*wantShards {
		t.Fatalf("totals wrong: in=%d out=%d", acc.InCount, acc.OutCount)
	}
	if len(acc.Shards) != n {
		t.Fatalf("Shards len = %d, want %d", len(acc.Shards), n)
	}
}
