package stream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/format"
	"repro/internal/ops"
	"repro/internal/sample"
	"repro/internal/telemetry"
)

// failMarked is armed by tests: while set, stream_test_fail_marked_mapper
// fails on the first sample whose text contains failMarker, and disarms.
var failMarked atomic.Bool

const failMarker = "fail-here"

type failMarkedMapper struct{}

func (failMarkedMapper) Name() string { return "stream_test_fail_marked_mapper" }
func (failMarkedMapper) Process(s *sample.Sample) error {
	if strings.Contains(s.Text, failMarker) && failMarked.CompareAndSwap(true, false) {
		return fmt.Errorf("injected failure")
	}
	return nil
}

func init() {
	ops.Register("stream_test_fail_marked_mapper", ops.CategoryMapper, "test",
		func(p ops.Params) (ops.OP, error) { return failMarkedMapper{}, nil })
}

// persistRecipe is the three-op recipe of the persistence tests: on
// hub:web-en?docs=500&seed=3 it keeps 459 of 500 samples.
const persistRecipe = `
project_name: persist-test
use_cache: true
process:
  - whitespace_normalization_mapper:
  - document_deduplicator:
  - text_length_filter:
      min_len: 1
`

const persistInput = "hub:web-en?docs=500&seed=3"

// persistRun runs r once over input in the single-shard (batch) shape
// with a journaling telemetry run, and returns the export as JSONL, the
// report, the journal's events and the /metrics text.
func persistRun(t *testing.T, r *config.Recipe, input string) (string, *Report, []telemetry.Event, string) {
	t.Helper()
	d, err := format.Load(input)
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	tele, err := telemetry.NewRun(telemetry.RunOptions{JournalWriter: &journal})
	if err != nil {
		t.Fatal(err)
	}
	tele.Begin("batch", r.ProjectName, input, d.Len())
	eng, err := New(r, Options{Telemetry: tele})
	if err != nil {
		t.Fatal(err)
	}
	var sink CollectSink
	rep, err := eng.Run(wholeSource(t, d), &sink)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	tele.End("ok", rep.InCount, rep.OutCount, nil, nil)
	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.DecodeJournal(journal.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if err := tele.Reg.WriteProm(&metrics); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := sink.Dataset().WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	return out.String(), rep, events, metrics.String()
}

// chainEntries returns the cache entry paths of a single-shard run of r
// over input, one per op in plan order.
func chainEntries(t *testing.T, r *config.Recipe, input string) []string {
	t.Helper()
	d, err := format.Load(input)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := cache.Key(d.Fingerprint(), "dataset", nil)
	var paths []string
	for i := range eng.plan.Nodes {
		key = eng.runner.OpCacheKey(key, eng.plan.Nodes[i].Op)
		paths = append(paths, filepath.Join(r.WorkDir, "cache", key+".cache.none"))
	}
	return paths
}

func corruptEvents(events []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range events {
		if e.Type == telemetry.EvPersistCorrupt {
			out = append(out, e)
		}
	}
	return out
}

// A cache entry cut short must never shrink the export: the rerun
// detects it, journals it, deletes it and recomputes the last op from
// the previous entry.
func TestTruncatedCacheEntryRecomputes(t *testing.T) {
	clean, _, _, _ := persistRun(t, withWorkDir(t, persistRecipe), persistInput)
	if n := strings.Count(clean, "\n"); n != 459 {
		t.Fatalf("clean run exported %d samples, want 459", n)
	}
	r := withWorkDir(t, persistRecipe)
	if first, _, _, _ := persistRun(t, r, persistInput); first != clean {
		t.Fatal("cold cached run differs from a clean run")
	}
	entries := chainEntries(t, r, persistInput)
	last := entries[len(entries)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for i := 0; i < 100; i++ {
		cut += bytes.IndexByte(raw[cut:], '\n') + 1
	}
	if err := os.WriteFile(last, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	got, rep, events, metrics := persistRun(t, r, persistInput)
	if n := strings.Count(got, "\n"); n != 459 || got != clean {
		t.Fatalf("rerun over a truncated entry exported %d samples, want the clean 459", n)
	}
	bad := corruptEvents(events)
	if len(bad) != 1 || bad[0].Kind != "cache" || bad[0].Path != last || bad[0].Why == "" {
		t.Fatalf("persist_corrupt events = %+v, want one for %s", bad, last)
	}
	if !strings.Contains(metrics, `dj_persist_corrupt_total{kind="cache"} 1`) {
		t.Errorf("metrics lack the corrupt counter:\n%s", metrics)
	}
	last3 := rep.OpStats[len(rep.OpStats)-1]
	if last3.CacheHit || !rep.OpStats[0].CacheHit || !rep.OpStats[1].CacheHit {
		t.Errorf("want the prefix resumed and the last op recomputed: %+v", rep.OpStats)
	}
	if _, err := os.Stat(last); err != nil {
		t.Errorf("recomputed entry not written back: %v", err)
	}
}

// An entry with bytes appended must not fail the run: every damaged
// entry is passed over and the run recomputes from the input.
func TestGarbageAppendedCacheEntriesRecompute(t *testing.T) {
	clean, _, _, _ := persistRun(t, withWorkDir(t, persistRecipe), persistInput)
	r := withWorkDir(t, persistRecipe)
	persistRun(t, r, persistInput)
	entries := chainEntries(t, r, persistInput)
	for _, p := range entries {
		f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString("garbage{")
		f.Close()
	}
	got, rep, events, _ := persistRun(t, r, persistInput)
	if got != clean {
		t.Fatal("rerun over damaged entries differs from a clean run")
	}
	if bad := corruptEvents(events); len(bad) != len(entries) {
		t.Fatalf("got %d persist_corrupt events, want %d", len(bad), len(entries))
	}
	for _, st := range rep.OpStats {
		if st.CacheHit {
			t.Fatalf("op %s resumed from a damaged entry", st.Name)
		}
	}
}

// A use_cache rerun decodes only the entry it resumes from: a damaged
// intermediate entry goes unnoticed, the run resumes every op and the
// export is the clean one.
func TestCacheRerunDecodesOnlyResumedEntry(t *testing.T) {
	r := withWorkDir(t, persistRecipe)
	clean, _, _, _ := persistRun(t, r, persistInput)
	mid := chainEntries(t, r, persistInput)[0]
	raw, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0x20 // a body byte: the header stays intact
	if err := os.WriteFile(mid, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep, events, _ := persistRun(t, r, persistInput)
	if got != clean {
		t.Fatal("rerun differs from the clean run")
	}
	if bad := corruptEvents(events); len(bad) != 0 {
		t.Fatalf("rerun decoded an intermediate entry: %+v", bad)
	}
	for _, st := range rep.OpStats {
		if !st.CacheHit {
			t.Fatalf("op %s not resumed", st.Name)
		}
	}
	if in, out := rep.OpStats[0].InCount, rep.OpStats[0].OutCount; in != 500 || out != 500 {
		t.Errorf("first op counts %d -> %d, want 500 -> 500 from the entry headers", in, out)
	}
	if in, out := rep.OpStats[1].InCount, rep.OpStats[1].OutCount; in != 500 || out != 459 {
		t.Errorf("dedup counts %d -> %d, want 500 -> 459 from the entry headers", in, out)
	}
}

// Checkpoint mode keeps only a chain's newest state: a run failing at
// its third op leaves exactly one entry, the state after the second.
func TestCheckpointReplacementCleansOld(t *testing.T) {
	r := withWorkDir(t, `
project_name: ckpt-replace
use_cache: false
use_checkpoint: true
op_fusion: false
process:
  - whitespace_normalization_mapper:
  - lowercase_mapper:
  - stream_test_fail_marked_mapper:
  - clean_links_mapper:
`)
	d := dataset.FromTexts([]string{"one  two", "three " + failMarker, "four"})
	failMarked.Store(true)
	defer failMarked.Store(false)
	eng, err := New(r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(wholeSource(t, d.Clone()), DiscardSink{}); err == nil {
		t.Fatal("expected the injected failure")
	}
	left, _ := filepath.Glob(filepath.Join(r.WorkDir, "checkpoint", "*"))
	if len(left) != 1 {
		t.Fatalf("checkpoint dir holds %v, want one entry", left)
	}
	key := cache.Key(d.Fingerprint(), "dataset", nil)
	for i := 0; i < 2; i++ {
		key = eng.runner.OpCacheKey(key, eng.plan.Nodes[i].Op)
	}
	if want := filepath.Join(r.WorkDir, "checkpoint", key+".cache.none"); left[0] != want {
		t.Fatalf("checkpoint entry %s, want the state after op 2 (%s)", left[0], want)
	}
}

// A multi-shard use_checkpoint run that fails on a later shard resumes
// shard by shard: the rerun skips the shards that finished, exports
// exactly what a clean run exports and leaves the checkpoint store empty.
func TestCheckpointMultiShardResume(t *testing.T) {
	const yaml = `
project_name: ckpt-shards
use_cache: false
use_checkpoint: true
process:
  - whitespace_normalization_mapper:
  - stream_test_fail_marked_mapper:
  - word_num_filter:
      min_num: 3
  - document_deduplicator:
`
	base, err := format.Load("hub:web-en?docs=160&seed=5")
	if err != nil {
		t.Fatal(err)
	}
	base.Samples[150].Text += " " + failMarker // in the last of ten shards
	input := filepath.Join(t.TempDir(), "input.jsonl")
	if err := base.SaveJSONL(input); err != nil {
		t.Fatal(err)
	}
	run := func(r *config.Recipe) (string, *Report, error) {
		eng, err := New(r, Options{ShardSize: 16, MaxInFlight: 4})
		if err != nil {
			t.Fatal(err)
		}
		src, err := OpenSource(input, 16)
		if err != nil {
			t.Fatal(err)
		}
		var sink CollectSink
		rep, err := eng.Run(src, &sink)
		if err != nil {
			return "", nil, err
		}
		var out bytes.Buffer
		if err := sink.Dataset().WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		return out.String(), rep, nil
	}
	clean, _, err := run(withWorkDir(t, yaml))
	if err != nil {
		t.Fatal(err)
	}

	r := withWorkDir(t, yaml)
	failMarked.Store(true)
	defer failMarked.Store(false)
	if _, _, err := run(r); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("expected the injected failure, got %v", err)
	}
	got, rep, err := run(r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResumedShards == 0 || rep.ResumedShards >= rep.ShardCount {
		t.Errorf("rerun resumed %d of %d shards, want the finished ones", rep.ResumedShards, rep.ShardCount)
	}
	if got != clean {
		t.Fatal("resumed export differs from a clean run")
	}
	if left, _ := os.ReadDir(filepath.Join(r.WorkDir, "checkpoint")); len(left) != 0 {
		t.Fatalf("successful run left %d checkpoint files", len(left))
	}
}

func withWorkDir(t *testing.T, yaml string) *config.Recipe {
	t.Helper()
	r := mustRecipe(t, yaml)
	r.WorkDir = t.TempDir()
	return r
}
