package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes itself with -child to run each timed run.
func TestMain(m *testing.M) {
	if len(os.Args) == 5 && os.Args[1] == "-child" && os.Args[3] == "-child-out" {
		if err := runChild(os.Args[2], os.Args[4]); err != nil {
			os.Stderr.WriteString("child: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRunRejectsTamperedExports pins the comparison itself: the
// concatenated shard files must equal the reference byte for byte, and
// the executed plan must equal the set-up plan.
func TestCheckRunRejectsTamperedExports(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	writeFile(t, refPath, "{\"text\":\"a\"}\n{\"text\":\"b\"}\n{\"text\":\"c\"}\n")
	ref, err := hashExports([]string{refPath})
	if err != nil {
		t.Fatal(err)
	}
	if ref.docs != 3 {
		t.Fatalf("reference docs = %d, want 3", ref.docs)
	}
	shard := func(name, body string) string {
		p := filepath.Join(dir, name)
		writeFile(t, p, body)
		return p
	}
	good := []string{shard("g0.jsonl", "{\"text\":\"a\"}\n"), shard("g1.jsonl", "{\"text\":\"b\"}\n{\"text\":\"c\"}\n")}
	plan := []string{"op_a", "op_b"}
	cases := []struct {
		name    string
		exports [][]string
		plan    []string
		ok      bool
	}{
		{"sharded export equal to reference", [][]string{good}, plan, true},
		{"one byte changed", [][]string{{good[0], shard("t1.jsonl", "{\"text\":\"b\"}\n{\"text\":\"C\"}\n")}}, plan, false},
		{"shards out of order", [][]string{{good[1], good[0]}}, plan, false},
		{"document dropped", [][]string{{good[0]}}, plan, false},
		{"second pass differs", [][]string{good, {good[0]}}, plan, false},
		{"plan differs from set-up plan", [][]string{good}, []string{"op_b", "op_a"}, false},
	}
	for _, c := range cases {
		res := &childResult{Exports: c.exports, Plans: [][]string{c.plan}}
		if msg := checkRun(res, ref, plan); (msg == "") != c.ok {
			t.Errorf("%s: checkRun = %q, want ok=%v", c.name, msg, c.ok)
		}
	}
}

// TestSelfTimesPartitionWall checks the span accounting on a synthetic
// trace with concurrent children: self times plus residual equal the
// root's wall time, and overlapping leaves share their interval.
func TestSelfTimesPartitionWall(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: layerSetup, Start: 0, End: 2},
		{ID: 3, Parent: 2, Layer: layerPlan, Start: 0.5, End: 1.5},
		{ID: 4, Parent: 1, Layer: layerEngine, Start: 2, End: 9},
		{ID: 5, Parent: 4, Layer: layerFormat, Start: 2, End: 4},
		{ID: 6, Parent: 4, Layer: layerSink, Start: 3, End: 5},
		// A child overrunning its parent is clipped to it.
		{ID: 7, Parent: 4, Layer: layerDistStage, Start: 8, End: 12},
	}
	self, residual, wall := selfTimes(spans, 1)
	want := map[string]float64{
		layerSetup: 1, layerPlan: 1,
		layerEngine: 3, // 5..8
		layerFormat: 1 + 0.5, layerSink: 0.5 + 1,
		layerDistStage: 1,
	}
	for l, v := range want {
		if math.Abs(self[l]-v) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", l, self[l], v)
		}
	}
	if math.Abs(residual-1) > 1e-9 || wall != 10 {
		t.Errorf("residual = %v, wall = %v; want 1, 10", residual, wall)
	}
	sum := residual
	for _, v := range self {
		sum += v
	}
	if math.Abs(sum-wall) > 1e-9 {
		t.Errorf("self times + residual = %v, want wall %v", sum, wall)
	}
}

// TestOpCPUSeconds pins how reported op times become CPU seconds: wall
// time × workers where the op ran under Workers goroutines, as reported
// where the engine already summed per-shard time, and without the index
// wait for shared-index ops.
func TestOpCPUSeconds(t *testing.T) {
	st := core.OpStat{Duration: 3 * time.Second, Workers: 2}
	wait := time.Second
	cases := []struct {
		name     string
		streamed bool
		c        plan.Capability
		want     float64
	}{
		{"batch op", false, plan.ShardLocal, 6},
		{"stream barrier", true, plan.Barrier, 6},
		{"stream shard-local", true, plan.ShardLocal, 3},
		{"stream shared-index", true, plan.SharedIndex, 2},
	}
	for _, c := range cases {
		w := time.Duration(0)
		if c.c == plan.SharedIndex {
			w = wait
		}
		if got := opCPUSeconds(st, c.streamed, c.c, w); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: opCPUSeconds = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the runner
// reads, in step with the workloads and metrics this program emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json {%q, %q}, code {%q, %q}", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	e2e := map[string]string{"pass_rate": "ratio"}
	for _, m := range endToEnd {
		e2e[m.name] = m.unit
	}
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, code emits %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, code %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
	units := perLayerUnits()
	var names []string
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, code %q", m.Name, m.Unit, units[m.Name])
		}
	}
	sort.Strings(names)
	if !slices.Equal(names, perLayerNames()) {
		t.Errorf("per-layer names differ:\nBENCHMARK.json %v\ncode           %v", names, perLayerNames())
	}
}

// runSmall drives a workload end to end on a small input, with this
// test binary as the child.
func runSmall(t *testing.T, name string, docs int, trace bool, tamper func(*childResult)) (*runRecord, *result) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	small := *w
	small.docs = docs
	workerBin := ""
	if small.workers > 0 {
		workerBin = filepath.Join(t.TempDir(), "djworker")
		build := exec.Command("go", "build", "-o", workerBin, "repro/cmd/djworker")
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build djworker: %v\n%s", err, out)
		}
	}
	d, err := newHarness(&small, 7, 1, trace, workerBin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()
	d.beforeCheck = tamper
	rec, res, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	return rec, res
}

// TestTamperedExportCountsAsFailure runs a real workload and corrupts
// every timed run's export after the child wrote it: each run must be
// counted as failed and the result marked incorrect.
func TestTamperedExportCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	tamper := func(r *childResult) {
		last := r.Exports[len(r.Exports)-1]
		path := last[len(last)-1]
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Error(err)
			return
		}
		raw[len(raw)/2] ^= 1
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Error(err)
		}
	}
	_, res := runSmall(t, "cache-resume", 300, false, tamper)
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("tampered exports: correct=%v failed=%d attempted=%d, want every run failed",
			res.Correct, res.Failed, res.Attempted)
	}
	if got := res.Metrics["pass_rate"].Value; got != 0 {
		t.Errorf("pass_rate = %v, want 0", got)
	}
}

// TestWorkloadsSmall runs every workload untraced and traced on a small
// input: exports match the reference, every declared metric is
// emitted, and the layers that should be idle are.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			docs := 400
			if w.targetMemMB > 0 {
				docs = 3000 // enough index to spill under the 1 MB target
			}
			rec, res := runSmall(t, w.name, docs, false, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("untraced: correct=%v failed=%d failures=%v", res.Correct, res.Failed, rec.Failures)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want > 0", m.name, v)
				}
			}
			if len(rec.Plan) == 0 || rec.Input.Docs != docs {
				t.Errorf("record: plan %v, docs %d", rec.Plan, rec.Input.Docs)
			}

			rec, res = runSmall(t, w.name, docs, true, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d failures=%v", res.Correct, res.Failed, rec.Failures)
			}
			for _, n := range perLayerNames() {
				if _, ok := res.Metrics[n]; !ok {
					t.Errorf("per-layer %s missing", n)
				}
			}
			if len(res.Metrics) != len(perLayerNames()) {
				t.Errorf("traced run emits %d metrics, %d declared", len(res.Metrics), len(perLayerNames()))
			}
			v := func(n string) float64 { return res.Metrics[n].Value }
			if (v("dist.stage_s") > 0) != (w.workers > 0) {
				t.Errorf("dist.stage_s = %v with %d workers", v("dist.stage_s"), w.workers)
			}
			if (v("cache.entries") > 0) != w.useCache {
				t.Errorf("cache.entries = %v with use_cache=%v", v("cache.entries"), w.useCache)
			}
			if (v("spill.runs") > 0) != (w.targetMemMB > 0) {
				t.Errorf("spill.runs = %v with target_mem_mb=%d", v("spill.runs"), w.targetMemMB)
			}
			// The exact dedup is a small part of dedup-spill's engine work;
			// its time must not be scaled past the engine's own.
			if w.name == "dedup-spill" && v("ops.document_deduplicator.s") > v("self.engine_s") {
				t.Errorf("ops.document_deduplicator.s = %v exceeds self.engine_s = %v",
					v("ops.document_deduplicator.s"), v("self.engine_s"))
			}
		})
	}
}
