// Cross-backend differential conformance: randomized (seeded) recipes
// must produce byte-identical exports and equivalent per-op reports on
// the batch executor and the streaming engine, fused and unfused, across
// shard sizes. This is the contract that lets the two backends diverge in
// implementation without ever diverging in output.
package repro_test

import (
	"compress/gzip"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/disttest"
	"repro/internal/format"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/remote"
	"repro/internal/stream"
)

// opDraw yields one operator spec, optionally randomizing parameters.
type opDraw func(rng *rand.Rand) config.OpSpec

func fixedOp(name string) opDraw {
	return func(*rand.Rand) config.OpSpec { return config.OpSpec{Name: name} }
}

// conformancePool is the operator universe recipes are drawn from: a mix
// of shard-local mappers and filters, a shared-index deduplicator, and
// barrier (similarity) deduplicators.
var conformancePool = []opDraw{
	fixedOp("clean_links_mapper"),
	fixedOp("clean_html_mapper"),
	fixedOp("whitespace_normalization_mapper"),
	fixedOp("fix_unicode_mapper"),
	fixedOp("remove_non_printing_mapper"),
	fixedOp("alphanumeric_filter"),
	fixedOp("special_characters_filter"),
	func(rng *rand.Rand) config.OpSpec {
		return config.OpSpec{Name: "word_num_filter", Params: ops.Params{"min_num": 1 + rng.Intn(8)}}
	},
	func(rng *rand.Rand) config.OpSpec {
		return config.OpSpec{Name: "character_repetition_filter",
			Params: ops.Params{"rep_len": 3 + rng.Intn(5), "max_ratio": 0.4 + 0.4*rng.Float64()}}
	},
	func(rng *rand.Rand) config.OpSpec {
		return config.OpSpec{Name: "stopwords_filter", Params: ops.Params{"min_ratio": 0.02 * rng.Float64()}}
	},
	func(rng *rand.Rand) config.OpSpec {
		return config.OpSpec{Name: "flagged_words_filter", Params: ops.Params{"max_ratio": 0.05 + 0.2*rng.Float64()}}
	},
	func(rng *rand.Rand) config.OpSpec {
		return config.OpSpec{Name: "text_length_filter", Params: ops.Params{"min_len": rng.Intn(60)}}
	},
	fixedOp("document_deduplicator"),
	fixedOp("document_simhash_deduplicator"),
	fixedOp("document_minhash_deduplicator"),
}

// randomRecipe draws 3-6 distinct pool entries in pool order — a
// plausible pipeline with at least one op guaranteed.
func randomRecipe(rng *rand.Rand) *config.Recipe {
	n := 3 + rng.Intn(4)
	picks := rng.Perm(len(conformancePool))[:n]
	sort.Ints(picks) // keep pool (≈pipeline) order
	r := config.Default()
	r.ProjectName = "conformance"
	r.UseCache = false
	r.OpFusion = rng.Intn(2) == 0
	for _, idx := range picks {
		r.Process = append(r.Process, conformancePool[idx](rng))
	}
	return r
}

// runDistStream runs the recipe on the streaming engine with a real
// djworker fleet dispatching the shard-local stages — the distributed
// conformance leg. The pool gets its own work dir so worker-side state
// never touches the recipe's. A non-nil delay is installed as the
// engine's ShardDelay hook (jittered shard-completion order).
func runDistStream(t *testing.T, r *config.Recipe, input string, workers, shardSize int, delay func(phase, shard int) time.Duration) ([]byte, *stream.Report) {
	t.Helper()
	pool, err := remote.NewPool(remote.PoolOptions{
		Workers:   workers,
		WorkerBin: disttest.WorkerBin(t),
		WorkDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	eng, err := stream.New(r, stream.Options{
		ShardSize:  shardSize,
		Dispatch:   pool,
		ShardDelay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Configure(r, eng.Plan(), "conformance", nil); err != nil {
		t.Fatal(err)
	}
	src, err := stream.OpenSource(input, shardSize)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := stream.NewShardedJSONLSink(filepath.Join(t.TempDir(), "dist"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(src, sink)
	if err != nil {
		t.Fatal(err)
	}
	return readAll(t, sink.Paths()...), rep
}

func readAll(t *testing.T, paths ...string) []byte {
	t.Helper()
	var out []byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw...)
	}
	return out
}

// TestCrossBackendConformanceMixedFormats holds the acceptance bar of
// the unified ingestion layer: a "mix:" spec over a gzipped CSV and a
// plain JSONL — weighted 2:1, one constituent sample-capped — must
// produce byte-identical exports on the batch executor and the streaming
// engine, provenance tags included, while the stream side still reads
// shard by shard.
func TestCrossBackendConformanceMixedFormats(t *testing.T) {
	dir := t.TempDir()

	// Constituent 1: plain JSONL with duplicates for the dedup stage.
	web := corpus.Web(corpus.Options{Docs: 240, Seed: 77})
	jsonlPath := filepath.Join(dir, "web.jsonl")
	if err := web.SaveJSONL(jsonlPath); err != nil {
		t.Fatal(err)
	}

	// Constituent 2: gzipped CSV with a text column and a meta column.
	wiki := corpus.Wiki(corpus.Options{Docs: 120, Seed: 78})
	csvPath := filepath.Join(dir, "wiki.csv.gz")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	cw := csv.NewWriter(zw)
	if err := cw.Write([]string{"text", "topic"}); err != nil {
		t.Fatal(err)
	}
	for _, s := range wiki.Samples {
		topic, _ := s.GetString("meta.topic")
		if err := cw.Write([]string{s.Text, topic}); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	spec := "mix:" + jsonlPath + "@2," + csvPath + "@1:100"

	// A recipe crossing every capability class: shard-local mappers and
	// filters, a shared-index dedup, and a barrier (minhash) dedup.
	recipe := config.Default()
	recipe.ProjectName = "conformance-mixed"
	recipe.UseCache = false
	recipe.Process = []config.OpSpec{
		{Name: "fix_unicode_mapper"},
		{Name: "clean_links_mapper"},
		{Name: "whitespace_normalization_mapper"},
		{Name: "word_num_filter", Params: ops.Params{"min_num": 5}},
		{Name: "document_deduplicator"},
		{Name: "document_minhash_deduplicator"},
	}
	recipe.WorkDir = t.TempDir()

	// Each stream mode plans from its own cold work dir: the batch run
	// persists measured profiles, and a shared sidecar would let a later
	// engine legally reorder and misalign the per-op report comparison
	// (same isolation as TestCrossBackendConformance).
	streamRecipe := *recipe
	streamRecipe.WorkDir = t.TempDir()

	// Batch reference run over the drained mixture.
	exec, err := core.NewExecutor(recipe)
	if err != nil {
		t.Fatal(err)
	}
	data, err := format.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 340 { // 240 jsonl + 100 capped csv rows
		t.Fatalf("mixture loaded %d samples, want 340", data.Len())
	}
	batchOut, batchRep, err := exec.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	batchPath := filepath.Join(t.TempDir(), "batch.jsonl")
	if err := format.Export(batchOut, batchPath); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name  string
		shard int
	}{
		{"fixed", 37},
		{"shard64", 64},
	} {
		t.Run(mode.name, func(t *testing.T) {
			modeRecipe := streamRecipe
			modeRecipe.WorkDir = t.TempDir()
			eng, err := stream.New(&modeRecipe, stream.Options{ShardSize: mode.shard})
			if err != nil {
				t.Fatal(err)
			}
			src, err := stream.OpenSource(spec, mode.shard)
			if err != nil {
				t.Fatal(err)
			}
			prefix := filepath.Join(t.TempDir(), "stream")
			sink, err := stream.NewShardedJSONLSink(prefix)
			if err != nil {
				t.Fatal(err)
			}
			streamRep, err := eng.Run(src, sink)
			if err != nil {
				t.Fatal(err)
			}
			batchBytes := readAll(t, batchPath)
			streamBytes := readAll(t, sink.Paths()...)
			if string(batchBytes) != string(streamBytes) {
				t.Fatalf("mixed-format exports diverge: batch %d bytes, stream %d bytes",
					len(batchBytes), len(streamBytes))
			}
			if len(batchRep.OpStats) != len(streamRep.OpStats) {
				t.Fatalf("report length diverges: batch %d, stream %d",
					len(batchRep.OpStats), len(streamRep.OpStats))
			}
			for i, b := range batchRep.OpStats {
				s := streamRep.OpStats[i]
				if b.Name != s.Name || b.InCount != s.InCount || b.OutCount != s.OutCount {
					t.Errorf("op %d: batch %s %d->%d, stream %s %d->%d",
						i, b.Name, b.InCount, b.OutCount, s.Name, s.InCount, s.OutCount)
				}
			}
		})
	}

	// Provenance survives processing: every exported sample is tagged.
	for _, s := range batchOut.Samples {
		if _, ok := s.Meta.Get("source"); !ok {
			t.Fatal("processed sample lost its provenance tag")
		}
	}
}

func TestCrossBackendConformance(t *testing.T) {
	// A corpus salted with exact and near duplicates so deduplicators
	// have real work, written once as the shared JSONL input.
	d := corpus.Web(corpus.Options{Docs: 400, Seed: 20260729})
	input := filepath.Join(t.TempDir(), "input.jsonl")
	if err := d.SaveJSONL(input); err != nil {
		t.Fatal(err)
	}

	shardSizes := []int{16, 50, 128, 400}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			recipe := randomRecipe(rng)
			recipe.WorkDir = t.TempDir()
			shardSize := shardSizes[rng.Intn(len(shardSizes))]

			// Batch reference run. The batch run persists measured
			// profiles into its work dir, which would steer the second
			// backend's plan (reordering is legal but would misalign the
			// per-op report comparison below) — so the streaming engine
			// gets its own work dir and both plan from the same cold
			// state. TestPlannerConformance covers the warm-profile path.
			streamRecipe := *recipe
			streamRecipe.WorkDir = t.TempDir()
			exec, err := core.NewExecutor(recipe)
			if err != nil {
				t.Fatal(err)
			}
			data, err := format.Load(input)
			if err != nil {
				t.Fatal(err)
			}
			batchOut, batchRep, err := exec.Run(data)
			if err != nil {
				t.Fatal(err)
			}
			batchPath := filepath.Join(t.TempDir(), "batch.jsonl")
			if err := format.Export(batchOut, batchPath); err != nil {
				t.Fatal(err)
			}

			// Streaming run over the same recipe and input.
			eng, err := stream.New(&streamRecipe, stream.Options{ShardSize: shardSize})
			if err != nil {
				t.Fatal(err)
			}
			src, err := stream.OpenSource(input, shardSize)
			if err != nil {
				t.Fatal(err)
			}
			prefix := filepath.Join(t.TempDir(), "stream")
			sink, err := stream.NewShardedJSONLSink(prefix)
			if err != nil {
				t.Fatal(err)
			}
			streamRep, err := eng.Run(src, sink)
			if err != nil {
				t.Fatal(err)
			}

			// Byte-identical exports: the concatenated stream shards must
			// equal the batch export exactly.
			batchBytes := readAll(t, batchPath)
			streamBytes := readAll(t, sink.Paths()...)
			if string(batchBytes) != string(streamBytes) {
				t.Fatalf("exports diverge: batch %d bytes, stream %d bytes (fusion=%v shard=%d)\nrecipe: %+v",
					len(batchBytes), len(streamBytes), recipe.OpFusion, shardSize, recipe.Process)
			}

			// Equivalent per-op reports: same plan, same per-op sample flow.
			if len(batchRep.OpStats) != len(streamRep.OpStats) {
				t.Fatalf("report length diverges: batch %d ops, stream %d ops",
					len(batchRep.OpStats), len(streamRep.OpStats))
			}
			for i, b := range batchRep.OpStats {
				s := streamRep.OpStats[i]
				if b.Name != s.Name || b.InCount != s.InCount || b.OutCount != s.OutCount {
					t.Errorf("op %d: batch %s %d->%d, stream %s %d->%d",
						i, b.Name, b.InCount, b.OutCount, s.Name, s.InCount, s.OutCount)
				}
			}

			// Distributed leg: the same recipe over a real djworker fleet
			// (2 or 4 workers by seed, spill forced on every third seed)
			// must stay byte-identical to the batch reference with the
			// same per-op sample flow in the merged report.
			if testing.Short() {
				return
			}
			distRecipe := *recipe
			distRecipe.WorkDir = t.TempDir()
			if seed%3 == 0 {
				distRecipe.TargetMemMB = 1 // force dedup-index spill
			}
			workers := 2
			if seed%2 == 0 {
				workers = 4
			}
			distBytes, distRep := runDistStream(t, &distRecipe, input, workers, shardSize, nil)
			if string(batchBytes) != string(distBytes) {
				t.Fatalf("distributed export diverges: batch %d bytes, dist %d bytes (workers=%d spill=%v)\nrecipe: %+v",
					len(batchBytes), len(distBytes), workers, seed%3 == 0, recipe.Process)
			}
			if distRep.Dist == nil {
				t.Fatal("distributed run reported no fleet stats")
			}
			if distRep.Dist.Retries != 0 || distRep.Dist.Fallbacks != 0 {
				t.Errorf("healthy fleet reported %d retries, %d fallbacks",
					distRep.Dist.Retries, distRep.Dist.Fallbacks)
			}
			for i, b := range batchRep.OpStats {
				s := distRep.OpStats[i]
				if b.Name != s.Name || b.InCount != s.InCount || b.OutCount != s.OutCount {
					t.Errorf("dist op %d: batch %s %d->%d, dist %s %d->%d",
						i, b.Name, b.InCount, b.OutCount, s.Name, s.InCount, s.OutCount)
				}
			}
		})
	}
}

// TestPlannerConformance holds the planner's acceptance bar over the 12
// seeded recipes: whatever legal reordering/fusion the planner applies —
// planner off (static recipe order), planner on cold (static hints), or
// planner on warm (measured-cost order from the persisted sidecar) — the
// exported bytes must never change, on either backend. It also pins the headline behavior: the second run of a
// recipe demonstrably plans from the profile sidecar the first run
// persisted.
func TestPlannerConformance(t *testing.T) {
	d := corpus.Web(corpus.Options{Docs: 300, Seed: 20260730})
	input := filepath.Join(t.TempDir(), "input.jsonl")
	if err := d.SaveJSONL(input); err != nil {
		t.Fatal(err)
	}

	runBatch := func(t *testing.T, r *config.Recipe) ([]byte, *core.Executor) {
		t.Helper()
		exec, err := core.NewExecutor(r)
		if err != nil {
			t.Fatal(err)
		}
		data, err := format.Load(input)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := exec.Run(data)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "out.jsonl")
		if err := format.Export(out, path); err != nil {
			t.Fatal(err)
		}
		return readAll(t, path), exec
	}

	runStream := func(t *testing.T, r *config.Recipe) []byte {
		t.Helper()
		eng, err := stream.New(r, stream.Options{ShardSize: 41})
		if err != nil {
			t.Fatal(err)
		}
		src, err := stream.OpenSource(input, 41)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := stream.NewShardedJSONLSink(filepath.Join(t.TempDir(), "stream"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(src, sink); err != nil {
			t.Fatal(err)
		}
		return readAll(t, sink.Paths()...)
	}

	measuredSeeds := 0
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			recipe := randomRecipe(rng)

			// Planner off: static recipe order, no fusion, no profiles.
			off := *recipe
			off.OpFusion = false
			off.UseProfiles = false
			off.WorkDir = t.TempDir()
			ref, _ := runBatch(t, &off)

			// Planner on, cold: fusion + static-hint reordering.
			on := *recipe
			on.OpFusion = true
			on.UseProfiles = true
			on.WorkDir = t.TempDir()
			cold, coldExec := runBatch(t, &on)
			if string(cold) != string(ref) {
				t.Fatalf("planner-on (cold) changed the export: %d vs %d bytes\nrecipe: %+v",
					len(cold), len(ref), recipe.Process)
			}
			if n := coldExec.Plan().MeasuredOps; n != 0 {
				t.Fatalf("cold plan claims %d measured ops", n)
			}

			// Planner on, warm: the same recipe replans from the sidecar
			// the cold run persisted.
			warm, warmExec := runBatch(t, &on)
			if string(warm) != string(ref) {
				t.Fatalf("planner-on (warm) changed the export: %d vs %d bytes\nplan:\n%s",
					len(warm), len(ref), warmExec.Plan().Explain())
			}
			if warmExec.Plan().MeasuredOps > 0 {
				measuredSeeds++
			} else {
				t.Fatalf("warm run did not plan from the persisted sidecar:\n%s",
					warmExec.Plan().Explain())
			}

			// Streaming over the same warm sidecar (and a cold one).
			if got := runStream(t, &on); string(got) != string(ref) {
				t.Fatalf("stream (warm profiles) changed the export: %d vs %d bytes",
					len(got), len(ref))
			}
			onStreamCold := on
			onStreamCold.WorkDir = t.TempDir()
			if got := runStream(t, &onStreamCold); string(got) != string(ref) {
				t.Fatalf("stream (cold) changed the export: %d vs %d bytes",
					len(got), len(ref))
			}

			// Distributed over the warm sidecar: the coordinator ships the
			// measured profiles over the wire, the workers replan from them,
			// and the fingerprint handshake proves both processes derived
			// the same measured-cost plan — still byte-identical to
			// planner-off.
			if !testing.Short() {
				workers := 2
				if seed%2 == 0 {
					workers = 3
				}
				got, _ := runDistStream(t, &on, input, workers, 41, nil)
				if string(got) != string(ref) {
					t.Fatalf("distributed (warm profiles, workers=%d) changed the export: %d vs %d bytes",
						workers, len(got), len(ref))
				}
			}
		})
	}
	if measuredSeeds == 0 {
		t.Fatal("no seed exercised a measured warm plan")
	}
}

// jitterDelay builds a deterministic pseudo-random per-(phase, shard)
// delay from a seed: up to ~2ms per shard, enough to scramble the order
// in which shards reach the shared-index stages without slowing the
// suite down.
func jitterDelay(seed int64) func(phase, shard int) time.Duration {
	return func(phase, shard int) time.Duration {
		h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(phase)<<32 + uint64(shard)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return time.Duration(h % uint64(2*time.Millisecond))
	}
}

// TestJitteredShardConformance scrambles shard completion order with
// seeded random delays and holds the streaming export byte-identical to
// the batch reference. This is the adversarial leg for the partitioned
// signature index: shards now claim partitions out of order and the
// in-order resolution is reconstructed per partition, so any ordering
// assumption hiding in the claim/deposit protocol shows up here as a
// flipped keep set. Covers spill on/off, serial and partitioned
// configurations, and a distributed fleet.
func TestJitteredShardConformance(t *testing.T) {
	d := corpus.Web(corpus.Options{Docs: 500, Seed: 20260808})
	input := filepath.Join(t.TempDir(), "input.jsonl")
	if err := d.SaveJSONL(input); err != nil {
		t.Fatal(err)
	}

	// Dedup-heavy recipe crossing every capability class, so the
	// shared-index stage sees real duplicate collisions across shards.
	recipe := config.Default()
	recipe.ProjectName = "jitter-conformance"
	recipe.UseCache = false
	recipe.Process = []config.OpSpec{
		{Name: "whitespace_normalization_mapper"},
		{Name: "word_num_filter", Params: ops.Params{"min_num": 3}},
		{Name: "document_deduplicator"},
		{Name: "document_minhash_deduplicator"},
	}
	recipe.WorkDir = t.TempDir()

	exec, err := core.NewExecutor(recipe)
	if err != nil {
		t.Fatal(err)
	}
	data, err := format.Load(input)
	if err != nil {
		t.Fatal(err)
	}
	batchOut, _, err := exec.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	batchPath := filepath.Join(t.TempDir(), "batch.jsonl")
	if err := format.Export(batchOut, batchPath); err != nil {
		t.Fatal(err)
	}
	ref := readAll(t, batchPath)

	for _, mode := range []struct {
		name       string
		targetMB   int
		partitions int
		seed       int64
	}{
		{"inmem-serial", 0, 1, 1},
		{"inmem-partitioned", 0, 8, 2},
		{"inmem-auto", 0, 0, 3},
		{"spill-serial", 1, 1, 4},
		{"spill-partitioned", 1, 8, 5},
	} {
		t.Run(mode.name, func(t *testing.T) {
			r := *recipe
			r.WorkDir = t.TempDir()
			r.TargetMemMB = mode.targetMB
			r.IndexPartitions = mode.partitions
			eng, err := stream.New(&r, stream.Options{
				ShardSize:  23,
				ShardDelay: jitterDelay(mode.seed),
			})
			if err != nil {
				t.Fatal(err)
			}
			src, err := stream.OpenSource(input, 23)
			if err != nil {
				t.Fatal(err)
			}
			sink, err := stream.NewShardedJSONLSink(filepath.Join(t.TempDir(), "stream"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(src, sink); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, sink.Paths()...); string(got) != string(ref) {
				t.Fatalf("jittered export diverges from batch: %d vs %d bytes (target=%dMB partitions=%d seed=%d)",
					len(got), len(ref), mode.targetMB, mode.partitions, mode.seed)
			}
		})
	}

	// Distributed fleet under the same jitter: shard-local stages run on
	// real djworker subprocesses, the partitioned index absorbs their
	// out-of-order returns coordinator-side.
	if !testing.Short() {
		t.Run("dist-jitter", func(t *testing.T) {
			r := *recipe
			r.WorkDir = t.TempDir()
			r.IndexPartitions = 4
			got, _ := runDistStream(t, &r, input, 3, 23, jitterDelay(6))
			if string(got) != string(ref) {
				t.Fatalf("jittered distributed export diverges from batch: %d vs %d bytes",
					len(got), len(ref))
			}
		})
	}
}
