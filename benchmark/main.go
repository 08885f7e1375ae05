// Command benchmark is the repository's end-to-end benchmark. It runs
// one named workload as a closed loop of batch jobs — one job at a
// time, each in a fresh child process, for a fixed number of seconds —
// over an input generated from a seed, checks every export byte for
// byte against a reference export, and prints one JSON result line.
//
// Usage, from the repository root (see run.sh, which builds it):
//
//	benchmark --workload web-refine --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// untraced; with --trace 1 it carries the per-layer metrics of a traced
// run, whose spans are recorded by this program's wrappers around the
// calls into each layer (see trace.go) — nothing is traced inside the
// system under test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload name (see workloads.go)")
		seed      = flag.Int64("seed", 1, "input seed: the same seed generates the same input")
		seconds   = flag.Int("seconds", 10, "how long the timed loop runs")
		trace     = flag.Int("trace", 0, "1 = report per-layer metrics from traced runs")
		workerBin = flag.String("worker-bin", "", "djworker binary for fleet workloads")
		buildDir  = flag.String("build-dir", ".bench_build", "directory for inputs, work dirs and traces")
		child     = flag.String("child", "", "run one timed run from this spec file (used by the harness)")
		childOut  = flag.String("child-out", "", "where a child writes its result")
	)
	flag.Parse()
	if *child != "" {
		if err := runChild(*child, *childOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	w, err := findWorkload(*workload)
	if err != nil {
		fatal(err)
	}
	d, err := newHarness(w, *seed, *seconds, *trace == 1, *workerBin, *buildDir)
	if err != nil {
		fatal(err)
	}
	defer d.cleanup()
	rec, res, err := d.run()
	if err != nil {
		d.cleanup()
		fatal(err)
	}
	recLine, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fatal(err)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(recLine))
	fmt.Println(string(resLine))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
