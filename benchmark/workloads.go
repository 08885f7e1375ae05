package main

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/dataset"
)

// Backends a workload can run on.
const (
	backendBatch  = "batch"  // core.Executor over the fully loaded input
	backendStream = "stream" // stream.Engine, in-process or coordinating a fleet
)

// workload is one closed-loop batch job: one generated input, one
// recipe, one engine configuration. Each timed run executes it once
// (twice for two-pass workloads) in a fresh child process.
type workload struct {
	name string
	// why is the reason the workload exists; BENCHMARK.json repeats it.
	why string
	// docs is the generated input size.
	docs int
	// gen builds the input corpus from the run's seed.
	gen func(seed int64, docs int) *dataset.Dataset
	// builtin names a shipped recipe; recipe is YAML otherwise.
	builtin string
	recipe  string
	backend string
	// workers is the djworker fleet size (0 = in-process); it must fit
	// the host's nproc.
	workers     int
	targetMemMB int
	useCache    bool
	// passes is 2 when a timed run is a cold run followed by a rerun
	// over the same work_dir.
	passes int
}

const (
	// np is every workload's in-process worker count; it must fit the
	// host's nproc.
	np = 2
	// shardSize is the shard size of every stream workload.
	shardSize = 512
	// fleetSize is the djworker count of the fleet workload.
	fleetSize = 2
)

var workloads = []workload{
	{
		name: "web-refine",
		why: "Paper's refined-web recipe (12 planned ops) on the batch backend, cache off: op compute dominates. " +
			"Supersedes BENCH_hotpath and BENCH_plan.",
		docs: 10000,
		gen: func(seed int64, docs int) *dataset.Dataset {
			return corpus.Web(corpus.Options{Docs: docs, Seed: seed})
		},
		builtin: "pretrain-web-en",
		backend: backendBatch,
		passes:  1,
	},
	{
		name: "dedup-spill",
		why: "Stream exact+minhash dedup under a 1 MB target on a 25%/15% duplicate-salted corpus: both indexes spill. " +
			"Supersedes BENCH_dedup_spill and BENCH_dedup_parallel.",
		docs: 40000,
		gen: func(seed int64, docs int) *dataset.Dataset {
			return corpus.Web(corpus.Options{Docs: docs, Seed: seed, DupExact: 0.25, DupNear: 0.15})
		},
		recipe: `project_name: dedup-spill
process:
  - whitespace_normalization_mapper:
  - document_deduplicator:
  - document_minhash_deduplicator:
      jaccard_threshold: 0.7
`,
		backend:     backendStream,
		targetMemMB: 1,
		passes:      1,
	},
	{
		name: "fleet-filter",
		why: "Cheap filter chain on long unsalted docs over a 2-djworker fleet: the dispatch wire dominates. " +
			"Supersedes BENCH_dist_transport.",
		docs: 16000,
		gen: func(seed int64, docs int) *dataset.Dataset {
			return corpus.Books(corpus.Options{Docs: docs, Seed: seed})
		},
		recipe: `project_name: fleet-filter
process:
  - whitespace_normalization_mapper:
  - text_length_filter:
      min_len: 200
      max_len: 100000
  - alphanumeric_filter:
      min_ratio: 0.6
  - special_characters_filter:
      max_ratio: 0.25
  - word_num_filter:
      min_num: 50
      max_num: 100000
  - document_deduplicator:
`,
		backend: backendStream,
		workers: fleetSize,
		passes:  1,
	},
	{
		name: "cache-resume",
		why: "Stream mapper chain with use_cache: a cold run writing ~8 entries per shard, then a rerun resuming " +
			"every shard from them. The only cache workload; supersedes no BENCH file.",
		docs: 10000,
		gen: func(seed int64, docs int) *dataset.Dataset {
			return corpus.Web(corpus.Options{Docs: docs, Seed: seed})
		},
		recipe: `project_name: cache-resume
process:
  - fix_unicode_mapper:
  - clean_html_mapper:
  - clean_links_mapper:
  - clean_email_mapper:
  - clean_ip_mapper:
  - punctuation_normalization_mapper:
  - remove_non_printing_mapper:
  - whitespace_normalization_mapper:
`,
		backend:  backendStream,
		useCache: true,
		passes:   2,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
