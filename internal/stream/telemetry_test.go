package stream

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/format"
	_ "repro/internal/ops/all"
	"repro/internal/telemetry"
)

// journalRun executes the equivalence recipe on one backend with a
// telemetry run journaling into memory, and returns the decoded events.
func journalRun(t *testing.T, backend, input, workDir string) []telemetry.Event {
	t.Helper()
	recipe := mustRecipe(t, equivalenceRecipe)
	recipe.WorkDir = workDir
	var buf bytes.Buffer
	tele, err := telemetry.NewRun(telemetry.RunOptions{JournalWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	tele.Begin(backend, "equivalence", input, 0)
	switch backend {
	case "batch":
		eng, err := New(recipe, Options{Telemetry: tele})
		if err != nil {
			t.Fatal(err)
		}
		d, err := format.Load(input)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(wholeSource(t, d), DiscardSink{})
		if err != nil {
			t.Fatal(err)
		}
		tele.End("ok", d.Len(), rep.OutCount, nil, nil)
	case "stream":
		eng, err := New(recipe, Options{ShardSize: 16, Telemetry: tele})
		if err != nil {
			t.Fatal(err)
		}
		src, err := OpenSource(input, 16)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Run(src, DiscardSink{})
		if err != nil {
			t.Fatal(err)
		}
		tele.End("ok", rep.InCount, rep.OutCount, nil, nil)
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.DecodeJournal(buf.Bytes())
	if err != nil {
		t.Fatalf("%s journal invalid: %v", backend, err)
	}
	return events
}

// opFlow sums per-op in/out across op_complete and cache_hit events —
// the journal's view of how many samples entered and survived each op.
func opFlow(events []telemetry.Event) map[string][2]int64 {
	flow := map[string][2]int64{}
	for _, e := range events {
		if e.Type != telemetry.EvOpComplete && e.Type != telemetry.EvCacheHit {
			continue
		}
		f := flow[e.Name]
		f[0] += e.In
		f[1] += e.Out
		flow[e.Name] = f
	}
	return flow
}

// TestJournalCrossBackendConformance runs the same recipe over the same
// input on both backends and asserts their journals agree on per-op
// sample flow: the batch executor applies each op once over the whole
// dataset, the streaming engine applies it per shard, but the summed
// in/out counts per operator must be identical.
func TestJournalCrossBackendConformance(t *testing.T) {
	input, _ := corpusWithDupes(t, 120)
	batch := journalRun(t, "batch", input, t.TempDir())
	streamEv := journalRun(t, "stream", input, t.TempDir())

	bFlow, sFlow := opFlow(batch), opFlow(streamEv)
	if len(bFlow) == 0 {
		t.Fatal("batch journal has no op events")
	}
	for name, bf := range bFlow {
		sf, ok := sFlow[name]
		if !ok {
			t.Errorf("op %q journaled by batch but not by stream", name)
			continue
		}
		if bf != sf {
			t.Errorf("op %q flow disagrees: batch %d -> %d, stream %d -> %d",
				name, bf[0], bf[1], sf[0], sf[1])
		}
	}
	for name := range sFlow {
		if _, ok := bFlow[name]; !ok {
			t.Errorf("op %q journaled by stream but not by batch", name)
		}
	}

	// Both journals must reconstruct into timelines with the same final
	// counts and plan size.
	bt, err := telemetry.BuildTimeline(batch)
	if err != nil {
		t.Fatal(err)
	}
	st, err := telemetry.BuildTimeline(streamEv)
	if err != nil {
		t.Fatal(err)
	}
	if bt.In != st.In || bt.Out != st.Out {
		t.Errorf("run totals disagree: batch %d -> %d, stream %d -> %d",
			bt.In, bt.Out, st.In, st.Out)
	}
	if len(bt.Ops) != len(st.Ops) {
		t.Errorf("timeline op counts disagree: batch %d, stream %d", len(bt.Ops), len(st.Ops))
	}
}

// TestStreamJournalShape checks the streaming-specific event structure:
// shard spans carry their phase parentage and per-op completions point
// at shard spans.
func TestStreamJournalShape(t *testing.T) {
	input, _ := corpusWithDupes(t, 60)
	events := journalRun(t, "stream", input, t.TempDir())

	spans := map[int64]string{} // span -> kind ("" until span_end seen)
	var phaseSpans, shardEnds, opCompletes int
	for _, e := range events {
		switch e.Type {
		case telemetry.EvPhase:
			phaseSpans++
			spans[e.Span] = "phase"
		case telemetry.EvSpanEnd:
			if e.Kind == "shard" {
				shardEnds++
				if _, ok := spans[e.Parent]; !ok {
					t.Errorf("shard span %d has unknown parent %d", e.Span, e.Parent)
				}
			}
		case telemetry.EvOpComplete:
			opCompletes++
		}
	}
	// The equivalence recipe is fully shard-local/shared-index: exactly
	// one phase, every shard span parented to it.
	if phaseSpans != 1 {
		t.Errorf("expected 1 phase, got %d", phaseSpans)
	}
	if shardEnds == 0 || opCompletes == 0 {
		t.Errorf("missing shard spans (%d) or op completions (%d)", shardEnds, opCompletes)
	}
}

// TestBatchJournalShape: a batch run is the engine over one in-memory
// shard, so its journal holds one phase and one shard span that parents
// every op completion, and the timeline takes the phase's duration from
// that shard.
func TestBatchJournalShape(t *testing.T) {
	input, _ := corpusWithDupes(t, 60)
	events := journalRun(t, "batch", input, t.TempDir())

	var phases, shards, phaseEnds int
	var shard telemetry.Event
	for _, e := range events {
		switch {
		case e.Type == telemetry.EvPhase:
			phases++
		case e.Type == telemetry.EvSpanEnd && e.Kind == "shard":
			shards++
			shard = e
		case e.Type == telemetry.EvSpanEnd && e.Kind == "phase":
			phaseEnds++
		}
	}
	if phases != 1 || shards != 1 || phaseEnds != 0 {
		t.Fatalf("batch journal: %d phases, %d shard spans, %d phase span ends; want 1, 1, 0",
			phases, shards, phaseEnds)
	}
	for _, e := range events {
		if e.Type == telemetry.EvOpComplete && e.Parent != shard.Span {
			t.Errorf("op %s completes under span %d, not the shard %d", e.Name, e.Parent, shard.Span)
		}
	}
	tl, err := telemetry.BuildTimeline(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Phases) != 1 || tl.Phases[0].Dur != time.Duration(shard.DurNS) {
		t.Fatalf("timeline phases %+v, want one lasting the shard's %dns", tl.Phases, shard.DurNS)
	}
}
