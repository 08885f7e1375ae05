package telemetry

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestGoldenJournalDecode pins the journal schema: the checked-in golden
// file covers every event type, and DecodeJournal (DisallowUnknownFields
// plus per-type validation) must accept it byte-for-byte. A field rename
// or removal fails here before it breaks downstream consumers.
func TestGoldenJournalDecode(t *testing.T) {
	events, err := ReadJournal(filepath.Join("testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []string{
		EvRunStart, EvPlan, EvPhase, EvPersistCorrupt, EvWorkerStart,
		EvCacheHit, EvOpComplete, EvOpComplete, EvSpill, EvIndex, EvWorkerRetry,
		EvShardSteal, EvSpanEnd, EvTrace, EvWorkerWire, EvExport, EvSpanEnd, EvRunEnd,
	}
	if len(events) != len(wantTypes) {
		t.Fatalf("decoded %d events, want %d", len(events), len(wantTypes))
	}
	for i, want := range wantTypes {
		if events[i].Type != want {
			t.Errorf("event %d: type %q, want %q", i, events[i].Type, want)
		}
	}

	start := events[0]
	if start.Schema != SchemaVersion || start.Backend != "stream" || start.In != 100 {
		t.Errorf("run_start fields wrong: %+v", start)
	}
	plan := events[1]
	if len(plan.Ops) != 2 || len(plan.Passes) != 2 {
		t.Fatalf("plan: %d ops / %d passes, want 2/2", len(plan.Ops), len(plan.Passes))
	}
	if got := plan.Ops[1]; got.Name != "fused_filter" || len(got.Members) != 2 || !got.Measured {
		t.Errorf("plan fused op decoded wrong: %+v", got)
	}
	end := events[len(events)-1]
	if end.Status != "ok" || end.In != 100 || end.Out != 40 || end.Shards != 1 {
		t.Errorf("run_end fields wrong: %+v", end)
	}
}

// TestGoldenTimeline reconstructs the golden journal into the timeline
// view: per-op aggregation, phase/shard attribution.
func TestGoldenTimeline(t *testing.T) {
	events, err := ReadJournal(filepath.Join("testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := BuildTimeline(events)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Truncated {
		t.Error("timeline marked truncated despite run_end")
	}
	if tl.Shards != 1 || tl.Status != "ok" {
		t.Errorf("headline wrong: %+v", tl)
	}
	if len(tl.Ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(tl.Ops))
	}
	if tl.Ops[0].Name != "a_mapper" || tl.Ops[0].In != 50 || tl.Ops[0].Wall != 200000 {
		t.Errorf("a_mapper aggregation wrong: %+v", tl.Ops[0])
	}
	if len(tl.Phases) != 1 || tl.Phases[0].Shards != 1 || tl.Phases[0].Dur != 600000 {
		t.Errorf("phase aggregation wrong: %+v", tl.Phases)
	}
	if tl.Ops[1].SpillRuns != 3 || tl.Ops[1].SpillBytes != 2097152 {
		t.Errorf("spill aggregation wrong: %+v", tl.Ops[1])
	}
	if tl.Ops[1].Partitions != 8 || tl.Ops[1].IndexWaits != 5 || tl.Ops[1].IndexWait != 120000 {
		t.Errorf("index aggregation wrong: %+v", tl.Ops[1])
	}
	if len(tl.Workers) != 2 {
		t.Fatalf("got %d worker lanes, want 2: %+v", len(tl.Workers), tl.Workers)
	}
	w1, w2 := tl.Workers[0], tl.Workers[1]
	if w1.Worker != 1 || w1.Addr != "127.0.0.1:43117" || w1.Ops != 1 ||
		w1.In != 50 || w1.Out != 40 || w1.Wall != 300000 || w1.Steals != 1 || w1.Disconnected {
		t.Errorf("worker 1 lane wrong: %+v", w1)
	}
	if w1.DeltaStages != 2 || w1.BytesSent != 4194304 || w1.BytesRecv != 1048576 {
		t.Errorf("worker 1 wire accounting wrong: %+v", w1)
	}
	if w2.Worker != 2 || w2.Retries != 1 || !w2.Disconnected {
		t.Errorf("worker 2 lane wrong: %+v", w2)
	}
	if len(tl.Corrupt) != 1 || tl.Corrupt[0].Kind != "cache" || tl.Corrupt[0].Why != "body checksum mismatch" {
		t.Errorf("persist_corrupt events wrong: %+v", tl.Corrupt)
	}
	out := tl.Render()
	for _, want := range []string{"run r1 [stream]", "fused_filter", "plan passes", "phases:",
		"spill (disk-backed dedup indexes)", "spilled 3 runs, 2.0 MiB",
		"index contention (partitioned signature indexes)", "8 partitions, 5 blocked claims",
		"workers:", "w1  127.0.0.1:43117", "1 retries", "DISCONNECTED",
		"wire (dispatch transport):", "w1  sent 4.0 MiB recv 1.0 MiB, 2 delta stages",
		"persisted state discarded", "work/cache/0123456789abcdef.cache.none: body checksum mismatch"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"ts":1,"type":"run_start","run_id":"r","schema":1,"backend":"b","bogus":1}`,
		"start not first": `{"ts":1,"type":"plan","run_id":"r","ops":[{"name":"x"}]}` + "\n" +
			`{"ts":2,"type":"run_start","run_id":"r","schema":1,"backend":"b"}`,
		"newer schema":     `{"ts":1,"type":"run_start","run_id":"r","schema":99,"backend":"b"}`,
		"missing backend":  `{"ts":1,"type":"run_start","run_id":"r","schema":1}`,
		"missing run_id":   `{"ts":1,"type":"run_start","schema":1,"backend":"b"}`,
		"unknown type":     `{"ts":1,"type":"run_start","run_id":"r","schema":1,"backend":"b"}` + "\n" + `{"ts":2,"type":"mystery","run_id":"r"}`,
		"plan without ops": `{"ts":1,"type":"run_start","run_id":"r","schema":1,"backend":"b"}` + "\n" + `{"ts":2,"type":"plan","run_id":"r"}`,
		"removed replan":   `{"ts":1,"type":"run_start","run_id":"r","schema":4,"backend":"b"}` + "\n" + `{"ts":2,"type":"controller_replan","run_id":"r","workers":4,"shard_size":256}`,
		"spill no name":    `{"ts":1,"type":"run_start","run_id":"r","schema":1,"backend":"b"}` + "\n" + `{"ts":2,"type":"spill","run_id":"r","spill_runs":3}`,
		"spill no volume":  `{"ts":1,"type":"run_start","run_id":"r","schema":1,"backend":"b"}` + "\n" + `{"ts":2,"type":"spill","run_id":"r","name":"dedup"}`,
		"worker_start no worker": `{"ts":1,"type":"run_start","run_id":"r","schema":2,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"worker_start","run_id":"r","addr":"127.0.0.1:1"}`,
		"worker_start no addr": `{"ts":1,"type":"run_start","run_id":"r","schema":2,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"worker_start","run_id":"r","worker":1}`,
		"worker_retry no why": `{"ts":1,"type":"run_start","run_id":"r","schema":2,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"worker_retry","run_id":"r","worker":1}`,
		"shard_steal no worker": `{"ts":1,"type":"run_start","run_id":"r","schema":2,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"shard_steal","run_id":"r","shard":3}`,
		"worker_wire no worker": `{"ts":1,"type":"run_start","run_id":"r","schema":3,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"worker_wire","run_id":"r","bytes_sent":100}`,
		"worker_wire negative bytes": `{"ts":1,"type":"run_start","run_id":"r","schema":3,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"worker_wire","run_id":"r","worker":1,"bytes_recv":-5}`,
		"removed wire proto": `{"ts":1,"type":"run_start","run_id":"r","schema":4,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"worker_start","run_id":"r","worker":1,"addr":"127.0.0.1:1","proto":2}`,
		"removed raw bytes": `{"ts":1,"type":"run_start","run_id":"r","schema":4,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"worker_wire","run_id":"r","worker":1,"bytes_sent":100,"raw_bytes_sent":300}`,
		"index no name": `{"ts":1,"type":"run_start","run_id":"r","schema":4,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"index","run_id":"r","partitions":8}`,
		"index no partitions": `{"ts":1,"type":"run_start","run_id":"r","schema":4,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"index","run_id":"r","name":"dedup"}`,
		"index negative waits": `{"ts":1,"type":"run_start","run_id":"r","schema":4,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"index","run_id":"r","name":"dedup","partitions":8,"waits":-1}`,
		"persist_corrupt no path": `{"ts":1,"type":"run_start","run_id":"r","schema":5,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"persist_corrupt","run_id":"r","kind":"cache","why":"bad header"}`,
		"persist_corrupt no why": `{"ts":1,"type":"run_start","run_id":"r","schema":5,"backend":"b"}` + "\n" +
			`{"ts":2,"type":"persist_corrupt","run_id":"r","kind":"checkpoint","path":"p"}`,
	}
	for name, raw := range cases {
		if _, err := DecodeJournal([]byte(raw)); err == nil {
			t.Errorf("%s: decode accepted invalid journal", name)
		}
	}
}

// TestJournalTruncatedTail simulates a crash: a journal without run_end
// still decodes, and the timeline reports it as truncated.
func TestJournalTruncatedTail(t *testing.T) {
	raw := `{"ts":1000,"type":"run_start","run_id":"r","schema":1,"backend":"batch"}` + "\n" +
		`{"ts":5000,"type":"op_complete","run_id":"r","name":"x","in":10,"out":9}`
	events, err := DecodeJournal([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := BuildTimeline(events)
	if err != nil {
		t.Fatal(err)
	}
	if !tl.Truncated || tl.Dur != 4000 {
		t.Errorf("truncated journal: Truncated=%v Dur=%d, want true/4000", tl.Truncated, tl.Dur)
	}
	if !strings.Contains(tl.Render(), "incomplete journal") {
		t.Error("render does not flag the incomplete journal")
	}
}

// TestJournalRoundTrip writes through the real file-backed journal and
// reads it back with the validating decoder.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := NewJournal(dir, "round")
	if err != nil {
		t.Fatal(err)
	}
	j.Write(Event{TS: 1, Type: EvRunStart, RunID: "round", Schema: 1, Backend: "batch"})
	j.Write(Event{TS: 2, Type: EvOpComplete, RunID: "round", Name: "op", In: 3, Out: 2, DurNS: 5})
	j.Write(Event{TS: 3, Type: EvRunEnd, RunID: "round", Status: "ok"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[1].In != 3 {
		t.Fatalf("round trip lost data: %+v", events)
	}
}

// TestJournalConcurrentWriters hammers one journal from many goroutines;
// under -race this doubles as the writer race test, and the decode
// verifies no line was torn or interleaved.
func TestJournalConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	j := JournalTo(&buf)
	j.Write(Event{TS: 1, Type: EvRunStart, RunID: "c", Schema: 1, Backend: "stream"})
	const workers, writes = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				j.Write(Event{
					TS: int64(2 + w*writes + i), Type: EvOpComplete, RunID: "c",
					Name: fmt.Sprintf("op%d", w), In: 10, Out: 9, DurNS: 100,
				})
			}
		}(w)
	}
	wg.Wait()
	j.Write(Event{TS: 999999, Type: EvRunEnd, RunID: "c", Status: "ok"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := DecodeJournal(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := workers*writes + 2; len(events) != want {
		t.Fatalf("decoded %d events, want %d", len(events), want)
	}
}
