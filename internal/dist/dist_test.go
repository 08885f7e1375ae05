// External test package: the measurement test drives dist.Measure with
// the real engine from internal/stream, which itself depends on dist
// (the planner reads persisted profiles) — an in-package test would
// cycle.
package dist_test

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/corpus"
	"repro/internal/dist"
	_ "repro/internal/ops/all"
	"repro/internal/stream"
)

func TestPartitionCoversAllSamples(t *testing.T) {
	d := corpus.Web(corpus.Options{Docs: 103, Seed: 1})
	parts := dist.Partition(d, 16)
	if len(parts) != 16 {
		t.Fatalf("got %d parts, want 16", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	if total != d.Len() {
		t.Fatalf("parts hold %d samples, dataset has %d", total, d.Len())
	}
	// Order preserved: first sample of the first part is the first sample.
	if parts[0].Samples[0] != d.Samples[0] {
		t.Fatal("partitioning reordered samples")
	}
	if got := dist.Partition(d, 1000); len(got) != d.Len() {
		t.Fatalf("oversharded partition: %d parts, want %d", len(got), d.Len())
	}
}

func TestMeasureAndComposeShapes(t *testing.T) {
	recipe, err := config.ParseRecipe(`
project_name: dist-test
use_cache: false
process:
  - whitespace_normalization_mapper:
  - word_num_filter:
      min_num: 5
`)
	if err != nil {
		t.Fatal(err)
	}
	d := corpus.Web(corpus.Options{Docs: 120, Seed: 2})
	shards, err := dist.EncodeShards(dist.Partition(d, 8))
	if err != nil {
		t.Fatal(err)
	}
	process, err := stream.MeasureRunner(recipe)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := dist.Measure(shards, process)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs.Shards) != 8 {
		t.Fatalf("got %d shard costs, want 8", len(costs.Shards))
	}
	for i, c := range costs.Shards {
		if c.In == 0 || c.Process <= 0 {
			t.Fatalf("shard %d has empty measurement: %+v", i, c)
		}
	}

	ray1, err := dist.Compose(dist.EngineRay, costs, dist.Config{Nodes: 1, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	ray8, err := dist.Compose(dist.EngineRay, costs, dist.Config{Nodes: 8, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ray8.Total > ray1.Total {
		t.Fatalf("ray should scale with nodes: 8 nodes %v > 1 node %v", ray8.Total, ray1.Total)
	}

	beam8, err := dist.Compose(dist.EngineBeam, costs, dist.Config{Nodes: 8, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	var loadSum time.Duration
	for _, c := range costs.Shards {
		loadSum += c.Load
	}
	if beam8.Total < loadSum {
		t.Fatalf("beam cannot beat its serial loading floor: %v < %v", beam8.Total, loadSum)
	}

	local, err := dist.Compose(dist.EngineLocal, costs, dist.Config{Nodes: 1, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	if local.Total > ray1.Total {
		t.Fatalf("local executor should win at one node: %v > %v", local.Total, ray1.Total)
	}

	if _, err := dist.Compose(dist.Engine("spark"), costs, dist.Config{Nodes: 1, CoresPerNode: 1}); err == nil {
		t.Fatal("unknown engine should error")
	}
}
