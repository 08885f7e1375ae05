// Distributed conformance under fault injection: a coordinator driving
// real djworker subprocesses must export byte-for-byte what a
// single-process run exports — when the fleet is healthy, when a worker
// crashes mid-stage, hangs past the stage timeout, returns a corrupt
// frame, is SIGKILLed from outside, and when every worker dies and the
// run degrades to in-process execution. The run journal must agree with
// the report about every retry and steal.
package repro_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/disttest"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/remote"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// chaosRecipe crosses every capability class so faults can land inside
// a dispatched stage while dedup and barrier work stays coordinator-side.
func chaosRecipe(t *testing.T) *config.Recipe {
	r := config.Default()
	r.ProjectName = "chaos"
	r.UseCache = false
	r.Process = []config.OpSpec{
		{Name: "fix_unicode_mapper"},
		{Name: "clean_links_mapper"},
		{Name: "whitespace_normalization_mapper"},
		{Name: "word_num_filter", Params: ops.Params{"min_num": 3}},
		{Name: "document_deduplicator"},
		{Name: "document_minhash_deduplicator"},
	}
	r.WorkDir = t.TempDir()
	return r
}

func chaosInput(t *testing.T) string {
	t.Helper()
	d := corpus.Web(corpus.Options{Docs: 300, Seed: 20260808})
	path := filepath.Join(t.TempDir(), "input.jsonl")
	if err := d.SaveJSONL(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func runStreamOnce(t *testing.T, r *config.Recipe, input string, shardSize int, dispatch stream.StageDispatcher, tele *telemetry.Run) ([]byte, *stream.Report, error) {
	t.Helper()
	eng, err := stream.New(r, stream.Options{ShardSize: shardSize, Dispatch: dispatch, Telemetry: tele})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := dispatch.(*remote.Pool); ok && p != nil {
		if err := pConfigure(p, r, eng, tele); err != nil {
			t.Fatal(err)
		}
	}
	src, err := stream.OpenSource(input, shardSize)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := stream.NewShardedJSONLSink(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(src, sink)
	if err != nil {
		return nil, nil, err
	}
	return readAll(t, sink.Paths()...), rep, nil
}

func pConfigure(p *remote.Pool, r *config.Recipe, eng *stream.Engine, tele *telemetry.Run) error {
	runID := "chaos"
	if tele != nil {
		runID = tele.ID()
	}
	return p.Configure(r, eng.Plan(), runID, tele)
}

// journalWorkerEvents counts worker_retry and shard_steal events in the
// coordinator's journal.
func journalWorkerEvents(t *testing.T, path string) (retries, steals, starts int) {
	t.Helper()
	events, err := telemetry.ReadJournal(path)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	for _, e := range events {
		switch e.Type {
		case telemetry.EvWorkerRetry:
			retries++
		case telemetry.EvShardSteal:
			steals++
		case telemetry.EvWorkerStart:
			starts++
		}
	}
	return
}

// TestDistributedChaos is the fault-injection acceptance bar: every
// injected failure mode must leave the export byte-identical to the
// single-process run, with the retries and steals it forced visible in
// both the report and the journal.
func TestDistributedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	input := chaosInput(t)
	baseRecipe := chaosRecipe(t)
	const shardSize = 40 // 300 docs -> 8 shards, several stage requests

	want, _, err := runStreamOnce(t, baseRecipe, input, shardSize, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		workers    int
		env        []string
		timeout    time.Duration
		minRetries int
		allDead    bool
	}{
		{
			name:    "healthy",
			workers: 3,
		},
		{
			name:       "crash_first_stage",
			workers:    3,
			env:        []string{disttest.FaultEnv(1, "crash:after=0")},
			minRetries: 1,
		},
		{
			// after=1 is the latest guaranteed trigger: a worker's second
			// request always arrives — a steal away from it would itself
			// require two requests in flight already.
			name:       "crash_mid_run",
			workers:    3,
			env:        []string{disttest.FaultEnv(2, "crash:after=1")},
			minRetries: 1,
		},
		{
			name:       "hang_times_out",
			workers:    3,
			env:        []string{disttest.FaultEnv(1, "hang:after=1")},
			timeout:    2 * time.Second,
			minRetries: 1,
		},
		{
			name:       "corrupt_response",
			workers:    3,
			env:        []string{disttest.FaultEnv(3, "corrupt:after=0")},
			minRetries: 1,
		},
		{
			name:    "all_workers_dead",
			workers: 2,
			env: []string{
				disttest.FaultEnv(1, "crash:after=0"),
				disttest.FaultEnv(2, "crash:after=0"),
			},
			minRetries: 2,
			allDead:    true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := *baseRecipe
			r.WorkDir = t.TempDir()
			journalDir := t.TempDir()
			tele, err := telemetry.NewRun(telemetry.RunOptions{JournalDir: journalDir, RunID: "chaos-" + tc.name})
			if err != nil {
				t.Fatal(err)
			}
			tele.Begin("dist", "chaos", input, 0)

			pool, err := remote.NewPool(remote.PoolOptions{
				Workers:      tc.workers,
				WorkerBin:    disttest.WorkerBin(t),
				WorkDir:      r.WorkDir,
				StageTimeout: tc.timeout,
				Env:          tc.env,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()

			got, rep, err := runStreamOnce(t, &r, input, shardSize, pool, tele)
			if err != nil {
				t.Fatal(err)
			}
			tele.End("ok", rep.InCount, rep.OutCount, nil, nil)
			if err := tele.Close(); err != nil {
				t.Fatal(err)
			}

			if string(got) != string(want) {
				t.Fatalf("%s: distributed export diverges from single-process: %d vs %d bytes",
					tc.name, len(got), len(want))
			}
			if rep.Dist == nil {
				t.Fatal("distributed run reported no fleet stats")
			}
			if rep.Dist.Retries < tc.minRetries {
				t.Errorf("report shows %d retries, want >= %d", rep.Dist.Retries, tc.minRetries)
			}
			if tc.allDead && rep.Dist.Fallbacks == 0 {
				t.Error("all workers dead but no shard fell back to in-process execution")
			}
			if !tc.allDead && rep.Dist.Fallbacks != 0 {
				t.Errorf("healthy-enough fleet still fell back %d times", rep.Dist.Fallbacks)
			}

			// The journal must agree with the report, event for event.
			retries, steals, starts := journalWorkerEvents(t, tele.JournalPath())
			if retries != rep.Dist.Retries {
				t.Errorf("journal has %d worker_retry events, report says %d", retries, rep.Dist.Retries)
			}
			if steals != rep.Dist.Steals {
				t.Errorf("journal has %d shard_steal events, report says %d", steals, rep.Dist.Steals)
			}
			if starts != tc.workers {
				t.Errorf("journal has %d worker_start events, fleet had %d workers", starts, tc.workers)
			}
		})
	}
}

// TestDistributedFusedMemberCounts pins the fleet's fused-member
// attribution: every worker flow is folded into the report once, so a
// fused filter's first member sees exactly the stage's input, every
// member computes stats for exactly that many samples, and the last
// member's survivors are the stage's output.
func TestDistributedFusedMemberCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	input := chaosInput(t)
	r := config.Default()
	r.ProjectName = "fused-members"
	r.UseCache = false
	r.OpFusion = true
	r.WorkDir = t.TempDir()
	r.Process = []config.OpSpec{
		{Name: "whitespace_normalization_mapper"},
		{Name: "word_num_filter", Params: ops.Params{"min_num": 3}},
		{Name: "stopwords_filter"},
		{Name: "flagged_words_filter"},
	}
	pool, err := remote.NewPool(remote.PoolOptions{
		Workers:   2,
		WorkerBin: disttest.WorkerBin(t),
		WorkDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	_, rep, err := runStreamOnce(t, r, input, 40, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dist == nil || rep.Dist.Fallbacks != 0 {
		t.Fatalf("want a healthy fleet run, got dist stats %+v", rep.Dist)
	}
	fused := 0
	for _, st := range rep.OpStats {
		if len(st.Members) == 0 {
			continue
		}
		fused++
		if got := st.Members[0].In; got != st.InCount {
			t.Errorf("%s: first member In = %d, stage input = %d", st.Name, got, st.InCount)
		}
		if got := st.Members[len(st.Members)-1].Out; got != st.OutCount {
			t.Errorf("%s: last member Out = %d, stage output = %d", st.Name, got, st.OutCount)
		}
		for _, m := range st.Members {
			if m.Samples != st.InCount {
				t.Errorf("%s: member %s computed stats for %d samples, stage input = %d",
					st.Name, m.Name, m.Samples, st.InCount)
			}
		}
	}
	if fused == 0 {
		t.Fatal("the plan fused no filters; the recipe no longer exercises fused members")
	}
}

// TestDistributedExternalKill covers the failure no in-process fault
// can model: a fleet member SIGKILLed by the outside world mid-run. The
// coordinator dials a pre-started fleet (-worker-addrs mode), one
// member is killed after the fleet passes health checks, and the export
// must still match the single-process run with the kill visible as
// retries in report and journal.
func TestDistributedExternalKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	input := chaosInput(t)
	r := chaosRecipe(t)
	const shardSize = 40

	want, _, err := runStreamOnce(t, r, input, shardSize, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	workers, addrs := disttest.Fleet(t, 3)
	pool, err := remote.NewPool(remote.PoolOptions{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// Healthy at configure time, dead before its first shard arrives.
	workers[1].Kill()

	distRecipe := *r
	distRecipe.WorkDir = t.TempDir()
	tele, err := telemetry.NewRun(telemetry.RunOptions{JournalDir: t.TempDir(), RunID: "external-kill"})
	if err != nil {
		t.Fatal(err)
	}
	tele.Begin("dist", "chaos", input, 0)
	got, rep, err := runStreamOnce(t, &distRecipe, input, shardSize, pool, tele)
	if err != nil {
		t.Fatal(err)
	}
	tele.End("ok", rep.InCount, rep.OutCount, nil, nil)
	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}

	if string(got) != string(want) {
		t.Fatalf("export diverges after external kill: %d vs %d bytes", len(got), len(want))
	}
	if rep.Dist == nil || rep.Dist.Retries < 1 {
		t.Fatalf("killed worker produced no retries: %+v", rep.Dist)
	}
	retries, steals, _ := journalWorkerEvents(t, tele.JournalPath())
	if retries != rep.Dist.Retries || steals != rep.Dist.Steals {
		t.Errorf("journal (%d retries, %d steals) disagrees with report (%d, %d)",
			retries, steals, rep.Dist.Retries, rep.Dist.Steals)
	}
}

// TestDistributedFingerprintMismatch pins the handshake: a worker whose
// recipe disagrees with the coordinator's plan must be rejected at
// configure time, not discovered as divergent output later.
func TestDistributedFingerprintMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	r := chaosRecipe(t)
	_, addrs := disttest.Fleet(t, 1)
	pool, err := remote.NewPool(remote.PoolOptions{Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	eng, err := stream.New(r, stream.Options{ShardSize: 40, Dispatch: pool})
	if err != nil {
		t.Fatal(err)
	}
	// Ship a recipe with one op dropped: the worker plans it and derives
	// a different fingerprint than the coordinator's plan.
	skewed := *r
	skewed.Process = skewed.Process[:len(skewed.Process)-1]
	err = pool.Configure(&skewed, eng.Plan(), "skew", nil)
	if err == nil {
		t.Fatal("skewed worker accepted the configure")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("rejection does not mention the fingerprint: %v", err)
	}
}

// failAfterSink accepts n shards, then fails every Consume: a run that
// dies after some shards finished.
type failAfterSink struct{ n int }

func (s *failAfterSink) Consume(*dataset.Dataset) error {
	if s.n--; s.n < 0 {
		return errors.New("sink full")
	}
	return nil
}

func (s *failAfterSink) Close() error { return nil }

// TestDistributedCheckpointResume: a dispatched use_checkpoint run that
// fails after some shards finished resumes those shards on the rerun
// from their stage-final checkpoints — dispatched stages walk the same
// op chains as in-process ones — exports exactly what a single-process
// run exports, and leaves the checkpoint store empty.
func TestDistributedCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	input := chaosInput(t)
	r := chaosRecipe(t)
	r.UseCheckpoint = true
	r.Process = r.Process[:5] // no barrier: the failure lands mid-phase
	want, _, err := runStreamOnce(t, r, input, 40, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	r.WorkDir = t.TempDir()
	pool, err := remote.NewPool(remote.PoolOptions{
		Workers:   2,
		WorkerBin: disttest.WorkerBin(t),
		WorkDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	eng, err := stream.New(r, stream.Options{ShardSize: 40, Dispatch: pool})
	if err != nil {
		t.Fatal(err)
	}
	if err := pConfigure(pool, r, eng, nil); err != nil {
		t.Fatal(err)
	}
	src, err := stream.OpenSource(input, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(src, &failAfterSink{n: 3}); err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("want the sink failure, got %v", err)
	}

	got, rep, err := runStreamOnce(t, r, input, 40, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedShards == 0 || rep.Dist == nil {
		t.Fatalf("rerun resumed %d shards (dist stats %+v), want the finished ones", rep.ResumedShards, rep.Dist)
	}
	if string(got) != string(want) {
		t.Fatal("resumed dispatched export differs from a single-process run")
	}
	if left, _ := os.ReadDir(filepath.Join(r.WorkDir, "checkpoint")); len(left) != 0 {
		t.Fatalf("successful run left %d checkpoint files", len(left))
	}
}
