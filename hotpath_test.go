// Allocation-regression tests for the zero-allocation hot path: the
// budgets below are deliberate upper bounds, so a future change that
// quietly reintroduces per-sample allocations (a boxed stats map, a
// fresh token slice per call, a reflective JSONL decode) fails here
// instead of silently halving throughput. See docs/performance.md for
// the architecture these tests pin down.
package repro_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/telemetry"
	"repro/internal/text"
)

// raceEnabled is set by hotpath_race_test.go when the race detector is
// active; AllocsPerRun numbers are meaningless under instrumentation.
var raceEnabled bool

func requireAllocBudget(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	// Warm the pools so steady state is measured, not first-use growth.
	for i := 0; i < 10; i++ {
		fn()
	}
	got := testing.AllocsPerRun(200, fn)
	if got > budget {
		t.Errorf("%s allocates %.1f/op, budget %.1f — the hot path regressed", name, got, budget)
	}
}

// TestAllocsStandardFilterChain: one sample through the fused standard
// word-group + char chain must not allocate in steady state — the token
// buffers come from the attached scratch, the stats vector reuses its
// capacity across Reset, and the n-gram sets use pooled hash buffers.
func TestAllocsStandardFilterChain(t *testing.T) {
	names := []string{
		"word_num_filter", "word_repetition_filter", "stopwords_filter",
		"flagged_words_filter", "special_characters_filter",
	}
	filters := make([]ops.Filter, len(names))
	for i, n := range names {
		op, err := ops.Build(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		filters[i] = op.(ops.Filter)
	}
	fused := plan.NewFusedFilter(filters)
	// All lower-case: the segmentation slow path (one lowered-copy alloc
	// per mixed-case sample) is measured separately below.
	s := sample.New(strings.Repeat("the quick brown fox jumps over a lazy dog again ", 20))
	sc := sample.GetScratch()
	defer sample.PutScratch(sc)
	requireAllocBudget(t, "fused standard chain", 1, func() {
		s.AttachScratch(sc)
		if err := fused.ComputeStats(s); err != nil {
			t.Fatal(err)
		}
		fused.Keep(s)
		s.ClearContext()
		s.Stats.Reset()
	})
}

// TestAllocsSegmenter: pooled segmentation over already-lower-case text
// is allocation-free; mixed-case text costs exactly the one lowered
// copy of the input.
func TestAllocsSegmenter(t *testing.T) {
	seg := text.GetSegmenter()
	defer text.PutSegmenter(seg)
	lower := strings.Repeat("all lower case words here ", 40)
	requireAllocBudget(t, "Segmenter.Words", 0, func() {
		seg.Words(lower)
	})
	requireAllocBudget(t, "Segmenter.WordsLower (lower input)", 0, func() {
		seg.WordsLower(lower)
	})
	mixed := strings.Repeat("Mixed Case Words Here ", 40)
	requireAllocBudget(t, "Segmenter.WordsLower (mixed input)", 1, func() {
		seg.WordsLower(mixed)
	})
	requireAllocBudget(t, "Segmenter.Lines", 0, func() {
		seg.Lines("line one\nline two\nline three")
	})
	requireAllocBudget(t, "Segmenter.Sentences", 0, func() {
		seg.Sentences("First sentence. Second one! A third? Done.")
	})
}

// TestAllocsJSONLDecodeFastPath: decoding one wire line costs the text
// string, the stats vector, and the interned-stat values — a small
// constant, not a reflective tree of boxed maps.
func TestAllocsJSONLDecodeFastPath(t *testing.T) {
	line := []byte(`{"text":"a plain document body with some words in it","stats":{"num_words":9,"special_char_ratio":0.02}}`)
	var s sample.Sample
	requireAllocBudget(t, "JSONL wire decode", 4, func() {
		if err := s.UnmarshalJSON(line); err != nil {
			t.Fatal(err)
		}
	})
	escaped := []byte(`{"text":"escapes \n and \"quotes\" and é"}`)
	requireAllocBudget(t, "JSONL wire decode (escapes)", 4, func() {
		if err := s.UnmarshalJSON(escaped); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsJSONLEncode: encoding a typical processed sample into a
// reused buffer allocates nothing.
func TestAllocsJSONLEncode(t *testing.T) {
	s := sample.New("a plain document body with some words in it")
	s.SetStat("num_words", 9)
	s.SetStat("special_char_ratio", 0.02)
	s.SetStatString("lang", "en")
	buf := make([]byte, 0, 4096)
	requireAllocBudget(t, "JSONL encode", 0, func() {
		var err error
		buf, err = s.AppendJSON(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsTelemetryInstruments: registry instrumentation on the fused
// hot path is allocation-free — handles are resolved once at RegisterOp,
// so recording a sample batch is pure atomic arithmetic. A regression
// here means enabling -listen or the journal taxes every operator
// application.
func TestAllocsTelemetryInstruments(t *testing.T) {
	run, err := telemetry.NewRun(telemetry.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := run.RegisterOp(0, "fused_standard_chain", 1000, 0.5)
	requireAllocBudget(t, "OpMetrics.Observe", 0, func() {
		m.Observe(256, 200, 1<<14, 3*time.Millisecond)
	})
	requireAllocBudget(t, "OpMetrics.CacheHit", 0, func() {
		m.CacheHit(256, 200)
	})
	c := run.Reg.Counter("bench_total", "", telemetry.Label{Key: "op", Value: "x"})
	requireAllocBudget(t, "Counter.Add", 0, func() {
		c.Add(3)
	})
	g := run.Reg.Gauge("bench_gauge", "")
	requireAllocBudget(t, "Gauge.Set", 0, func() {
		g.Set(42)
	})
	h := run.Reg.Histogram("bench_hist", "", telemetry.DurationBuckets)
	requireAllocBudget(t, "Histogram.Observe", 0, func() {
		h.Observe(0.003)
	})
	requireAllocBudget(t, "Run.ObserveShard", 0, func() {
		run.ObserveShard(256)
	})
}

// TestAllocsDedupSignature: the exact-dedup signature streams over the
// text without materializing the normalized form.
func TestAllocsDedupSignature(t *testing.T) {
	op, err := ops.Build("document_deduplicator", nil)
	if err != nil {
		t.Fatal(err)
	}
	sd := op.(ops.StreamDeduper)
	s := sample.New(strings.Repeat("Some Text, with Punctuation! And  spacing. ", 30))
	requireAllocBudget(t, "document dedup signature", 0, func() {
		sd.Signature(s)
	})
}

// TestAllocsLanguageID: the language_id_score_filter kernel counts packed
// trigram codes in a pooled buffer, so a steady-state Classify allocates
// nothing, whichever path the input takes.
func TestAllocsLanguageID(t *testing.T) {
	l := text.NewLangID()
	latin := strings.Repeat("The Quick Brown Fox Jumps over the LAZY Dog; Straße, Über, À la forêt. ", 20)
	requireAllocBudget(t, "LangID.Classify (mixed-case Latin)", 0, func() {
		l.Classify(latin)
	})
	cjk := strings.Repeat("数据处理系统对于大型语言模型非常重要 ", 20)
	requireAllocBudget(t, "LangID.Classify (CJK shortcut)", 0, func() {
		l.Classify(cjk)
	})
	invalid := strings.Repeat("the \xc3\x28 quick \xff\xfe brown fox \xed\xa0\x80 ", 20)
	requireAllocBudget(t, "LangID.Classify (invalid UTF-8)", 0, func() {
		l.Classify(invalid)
	})
}
