// Package repro is a from-scratch Go reproduction of "Data-Juicer: A
// One-Stop Data Processing System for Large Language Models" (SIGMOD
// 2024): a recipe-driven pipeline that loads heterogeneous corpora into
// a unified sample representation, runs a standardized pool of Mapper /
// Filter / Deduplicator operators over them, and exports the refined
// data — with operator fusion, caching, checkpoints, lineage tracing,
// and analyzer probes as described in the paper.
//
// # Unified planner
//
// One logical→physical plan layer (internal/plan) feeds the one
// execution engine: the recipe's op list runs through an ordered pass
// pipeline — validate, predict (measured cost/selectivity from the
// per-recipe profile sidecar, static CostHint ranks on cold starts),
// measured-cost reordering of commutative filter groups, context-
// sharing fusion, streaming capability placement, and cache-boundary
// annotation. Every successful run persists its measurements
// (dist.SaveProfiles), so the next run of the same recipe plans from
// what the previous run observed. djprocess -explain renders the plan
// with per-op predictions and per-pass provenance; docs/recipes.md has
// the walkthrough and sidecar format.
//
// # One execution engine
//
// One engine (internal/stream.Engine) runs every recipe over the
// physical plan; batch is that engine over one in-memory shard:
//
//   - Streaming (djprocess -stream): the input is partitioned into
//     shards that flow through the full operator chain in a pipelined
//     worker pool — shard K can be in op 3 while shard K+1 is in op 1 —
//     with peak memory O(shards in flight). JSONL inputs are read
//     incrementally; output shards are written as they complete.
//     Shard-local ops stream freely, signature deduplicators run
//     against a shared index without a barrier, and similarity
//     deduplicators act as declared barriers (merge, apply, re-shard).
//
//   - Batch (internal/core.Executor, the default): the whole dataset is
//     resident and is the engine's single shard, so each op runs once
//     over the whole dataset with parallel workers and no op needs a
//     barrier. Peak memory is O(corpus). Every op boundary persists a
//     state of the whole-dataset op chain; probes and disk-space
//     analysis need the resident dataset.
//
// Every op applies through one OpRunner, so kept-sample sets are
// identical at any shard size — a contract enforced by the randomized
// cross-backend conformance suite (conformance_test.go).
//
// # Unified ingestion and mixing
//
// Batch and streaming runs read inputs through one incremental interface
// (internal/format.Source): jsonl/json/csv/tsv/txt/md/html/code files,
// transparent gzip decompression, directories, globs, and "hub:"
// synthetic corpora, all unified into the sample representation.
// Record-oriented formats read with bounded buffers; whole-document
// formats (txt/md/html/code) are bounded by the largest single file,
// since the whole file is one sample. Weighted multi-source mixing ("mix:" specs,
// recipe "sources:" lists) interleaves corpora deterministically by
// weight with per-sample provenance tags in meta.source, so mixed
// multi-format inputs run batch or streaming with byte-identical
// exports. The complete recipe-key and input-spec reference is
// docs/recipes.md; the generated operator table is
// internal/ops/README.md.
//
// # Zero-allocation hot path
//
// The per-sample inner loop of the engine is built to avoid
// allocating in steady state: execution is batch-granular
// (dataset.MapBatches / FilterBatches, shards as batches, fused-filter
// counters flushed once per batch), tokenization reuses per-worker
// scratch buffers through the sample's typed context slots
// (text.Segmenter, substring tokens, rolling n-gram hashes), per-sample
// statistics live in a compact interned-key table (sample.Stats) rather
// than a boxed map, and the JSONL wire format has a hand-rolled
// encode/decode fast path that is byte-identical to encoding/json.
// docs/performance.md describes the architecture, the profiling flags
// (djprocess -cpuprofile/-memprofile), and the captured before/after
// numbers (BENCH_hotpath.json); allocation budgets are pinned by
// regression tests in hotpath_test.go.
//
// Choose batch for corpora that fit comfortably in RAM or when probe
// analysis is wanted; choose streaming (djprocess -stream) for corpora
// larger than RAM or when output should appear incrementally. The
// streaming schedule is fixed: np workers, -shard-size samples per
// shard, and at most 2×np shards in flight. See the README architecture
// section for the full comparison.
//
// The implementation lives under internal/; runnable entry points are
// cmd/djprocess, cmd/djanalyze, cmd/djbench and examples/.
package repro
