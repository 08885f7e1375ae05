// BenchmarkDistTransport measures the dispatch wire on a 2-worker fleet
// with a filter-heavy recipe (delta-eligible stages answer with keep
// masks) and a mapper-heavy one (full frames both ways), reporting the
// bytes each direction carried. The repo benchmark's fleet-filter
// workload (BENCHMARK.json) is the end-to-end record for this path.
package repro_test

import (
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/corpus"
	"repro/internal/disttest"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/remote"
	"repro/internal/stream"
)

const (
	transportBenchDocs  = 3000
	transportBenchShard = 200
)

func transportBenchRecipe(kind string) *config.Recipe {
	r := config.Default()
	r.ProjectName = "transport-bench"
	r.UseCache = false
	switch kind {
	case "filter-heavy":
		// min_len 600 drops just under half the corpus, so the keep mask
		// does real work instead of coming back all-ones.
		r.Process = []config.OpSpec{
			{Name: "text_length_filter", Params: ops.Params{"min_len": 600}},
			{Name: "word_num_filter", Params: ops.Params{"min_num": 3}},
			{Name: "alphanumeric_filter", Params: ops.Params{"min_ratio": 0.2}},
		}
	case "mapper-heavy":
		r.Process = []config.OpSpec{
			{Name: "fix_unicode_mapper"},
			{Name: "clean_links_mapper"},
			{Name: "whitespace_normalization_mapper"},
		}
	default:
		panic("unknown recipe kind " + kind)
	}
	return r
}

func transportBenchInput(b *testing.B) string {
	b.Helper()
	d := corpus.Web(corpus.Options{Docs: transportBenchDocs, Seed: 20260808})
	path := filepath.Join(b.TempDir(), "input.jsonl")
	if err := d.SaveJSONL(path); err != nil {
		b.Fatal(err)
	}
	return path
}

func benchTransportOnce(b *testing.B, kind string) {
	b.Helper()
	input := transportBenchInput(b)
	bin := disttest.WorkerBin(b)
	var sent, recv int64
	var deltaStages, outDocs int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := transportBenchRecipe(kind)
		r.WorkDir = b.TempDir()
		pool, err := remote.NewPool(remote.PoolOptions{
			Workers:   2,
			WorkerBin: bin,
			WorkDir:   r.WorkDir,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := stream.New(r, stream.Options{ShardSize: transportBenchShard, Dispatch: pool})
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Configure(r, eng.Plan(), "bench", nil); err != nil {
			b.Fatal(err)
		}
		src, err := stream.OpenSource(input, transportBenchShard)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := eng.Run(src, stream.DiscardSink{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st := pool.DistStats()
		sent, recv = st.BytesSent, st.BytesRecv
		deltaStages = st.DeltaStages
		outDocs = rep.OutCount
		pool.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(sent)/(1<<20), "sent-MiB")
	b.ReportMetric(float64(recv)/(1<<20), "recv-MiB")
	b.ReportMetric(float64(deltaStages), "delta-stages")
	b.ReportMetric(float64(outDocs), "docs-out")
}

func BenchmarkDistTransport(b *testing.B) {
	for _, kind := range []string{"filter-heavy", "mapper-heavy"} {
		b.Run(kind, func(b *testing.B) { benchTransportOnce(b, kind) })
	}
}
