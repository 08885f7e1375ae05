// Dispatch-wire conformance: keep-mask delta responses for filter-only
// stages must leave the export byte-identical to a single-process run,
// with the transport accounting visible in the report and journal.
package repro_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/disttest"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/remote"
	"repro/internal/telemetry"
)

// filterRecipe is a filter-only pipeline: every dispatched stage range
// is delta-eligible, so responses come back as keep masks + stats.
func filterRecipe(t *testing.T) *config.Recipe {
	r := config.Default()
	r.ProjectName = "transport"
	r.UseCache = false
	r.Process = []config.OpSpec{
		{Name: "text_length_filter", Params: ops.Params{"min_len": 20}},
		{Name: "word_num_filter", Params: ops.Params{"min_num": 3}},
		{Name: "alphanumeric_filter", Params: ops.Params{"min_ratio": 0.2}},
	}
	r.WorkDir = t.TempDir()
	return r
}

// journalWireEvents sums the worker_wire accounting in a journal.
func journalWireEvents(t *testing.T, path string) (events int, sent, recv int64, deltaStages int) {
	t.Helper()
	evs, err := telemetry.ReadJournal(path)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	for _, e := range evs {
		if e.Type == telemetry.EvWorkerWire {
			events++
			sent += e.BytesSent
			recv += e.BytesRecv
			deltaStages += e.DeltaStages
		}
	}
	return
}

// TestDistributedV2Delta pins the keep-mask path: a filter-only recipe
// over a fleet must answer stages with deltas, shrink the response
// bytes, journal the accounting, and stay byte-identical — stats
// annotations included, since the export carries them.
func TestDistributedV2Delta(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	input := chaosInput(t)
	r := filterRecipe(t)
	want, _, err := runStreamOnce(t, r, input, 40, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	rr := *r
	rr.WorkDir = t.TempDir()
	tele, err := telemetry.NewRun(telemetry.RunOptions{JournalDir: t.TempDir(), RunID: "transport"})
	if err != nil {
		t.Fatal(err)
	}
	tele.Begin("dist", "transport", input, 0)
	pool, err := remote.NewPool(remote.PoolOptions{
		Workers:   2,
		WorkerBin: disttest.WorkerBin(t),
		WorkDir:   rr.WorkDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	got, rep, err := runStreamOnce(t, &rr, input, 40, pool, tele)
	if err != nil {
		t.Fatal(err)
	}
	tele.End("ok", rep.InCount, rep.OutCount, nil, nil)
	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("distributed export diverges from single-process: %d vs %d bytes", len(got), len(want))
	}
	if rep.Dist == nil {
		t.Fatal("distributed run reported no fleet stats")
	}

	sent, recv, deltas := rep.Dist.BytesSent, rep.Dist.BytesRecv, rep.Dist.DeltaStages
	if sent <= 0 || recv <= 0 {
		t.Errorf("no wire accounting: sent=%d recv=%d", sent, recv)
	}
	if deltas == 0 {
		t.Error("filter-only stages produced no delta responses")
	}
	// Delta responses carry a bitmap + stats instead of full samples: the
	// response stream must be well under the request stream for this
	// text-heavy input.
	if recv*2 > sent {
		t.Errorf("delta responses not compact: sent %d, recv %d", sent, recv)
	}
	events, jSent, jRecv, jDeltas := journalWireEvents(t, tele.JournalPath())
	if events != 2 {
		t.Errorf("journal has %d worker_wire events, want 2", events)
	}
	if jSent != sent || jRecv != recv || jDeltas != deltas {
		t.Errorf("journal wire accounting (%d/%d/%d) disagrees with report (%d/%d/%d)",
			jSent, jRecv, jDeltas, sent, recv, deltas)
	}
}
