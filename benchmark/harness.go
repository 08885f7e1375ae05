package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/format"
	"repro/internal/plan"
)

// Limits that keep one invocation inside its time budget.
const (
	childTimeout = 120 * time.Second
	// loopDeadline stops starting timed runs once the invocation has
	// been running this long, whatever --seconds asks.
	loopDeadline = 140 * time.Second
)

type harness struct {
	w         *workload
	seed      int64
	seconds   int
	trace     bool
	self      string
	workerBin string
	buildDir  string
	dir       string
	started   time.Time
	// beforeCheck, when set, sees each timed run's result before its
	// export is checked (tests use it to tamper with exports).
	beforeCheck func(*childResult)
}

func newHarness(w *workload, seed int64, seconds int, trace bool, workerBin, buildDir string) (*harness, error) {
	nproc := runtime.NumCPU()
	if np > nproc || w.workers > nproc {
		return nil, fmt.Errorf("workload %s needs np=%d and %d workers but nproc=%d: refusing an oversubscribed configuration",
			w.name, np, w.workers, nproc)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if w.workers > 0 {
		if workerBin == "" {
			return nil, fmt.Errorf("workload %s runs a djworker fleet: pass --worker-bin", w.name)
		}
		if workerBin, err = filepath.Abs(workerBin); err != nil {
			return nil, err
		}
	}
	abs, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(abs, "runs", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &harness{w: w, seed: seed, seconds: seconds, trace: trace, self: self,
		workerBin: workerBin, buildDir: abs, dir: dir, started: time.Now()}, nil
}

func (d *harness) cleanup() { _ = os.RemoveAll(d.dir) }

// logf reports progress on stderr, stamped with the time since start.
func (d *harness) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(d.started).Seconds(), fmt.Sprintf(format, args...))
}

// reference is the export every timed run must reproduce.
type reference struct {
	sum   string
	bytes int64
	docs  int
}

// inputRecord describes the generated input.
type inputRecord struct {
	Seed          int64   `json:"seed"`
	Docs          int     `json:"docs"`
	MB            float64 `json:"mb"`
	ExactDupShare float64 `json:"exact_dup_share"`
	NearDupShare  float64 `json:"near_dup_share"`
	KeptShare     float64 `json:"kept_share"`
}

// runRecord is printed before the result line: what ran, on what.
type runRecord struct {
	Workload  string      `json:"workload"`
	Input     inputRecord `json:"input"`
	Plan      []string    `json:"plan"`
	Host      hostRecord  `json:"host"`
	Config    childSpec   `json:"config"`
	Timed     int         `json:"timed_runs"`
	Traced    int         `json:"traced_runs"`
	Failures  []string    `json:"failures,omitempty"`
	TracePath string      `json:"trace_path,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run performs set-up, the timed loop and the checks, and returns the
// run record and the result.
func (d *harness) run() (*runRecord, *result, error) {
	rec := &runRecord{Workload: d.w.name, Host: hostInfo()}
	su, err := d.setUp(rec)
	if err != nil {
		return nil, nil, err
	}
	untraced, traced, failed, err := d.timedLoop(su, rec)
	if err != nil {
		return nil, nil, err
	}
	rec.Timed, rec.Traced = len(untraced)+len(traced)+failed, len(traced)
	measured := len(untraced) > 0 && (!d.trace || len(traced) > 0)
	correct := measured && failed == 0
	metrics := map[string]metric{}
	switch {
	case !measured:
	case d.trace:
		pick := medianBy(traced, func(r *childResult) float64 { return r.WallS })
		walls := make([]float64, len(untraced))
		for i, r := range untraced {
			walls[i] = r.WallS
		}
		units := perLayerUnits()
		for name, v := range pick.Layers {
			metrics[name] = metric{Value: v, Unit: units[name]}
		}
		metrics["trace.overhead_s"] = metric{Value: pick.WallS - median(walls), Unit: "s"}
		if p, err := d.writeTrace(pick); err == nil {
			rec.TracePath = p
		} else {
			fmt.Fprintln(os.Stderr, "benchmark: trace:", err)
		}
	default:
		for _, m := range endToEnd {
			vals := make([]float64, len(untraced))
			for i, r := range untraced {
				vals[i] = m.of(r)
			}
			metrics[m.name] = metric{Value: median(vals), Unit: m.unit}
		}
	}
	attempted := max(rec.Timed, 1)
	if !d.trace {
		metrics["pass_rate"] = metric{Value: float64(attempted-failed) / float64(attempted), Unit: "ratio"}
	}
	return rec, &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// setup is what the timed loop needs from set-up.
type setup struct {
	spec    childSpec // the workload's run configuration
	ref     reference // the reference export
	plan    []string  // the set-up plan every run must execute
	sidecar string    // profiles directory copied into each work_dir
}

// setUp generates the input, builds the reference export, captures the
// profile sidecar and plans the workload from it.
func (d *harness) setUp(rec *runRecord) (*setup, error) {
	w := d.w
	data := w.gen(d.seed, w.docs)
	input := filepath.Join(d.dir, "input.jsonl")
	if err := format.Export(data, input); err != nil {
		return nil, err
	}
	rec.Input = describeInput(data, d.seed)
	if st, err := os.Stat(input); err == nil {
		rec.Input.MB = float64(st.Size()) / (1 << 20)
	}
	base := childSpec{Builtin: w.builtin, Input: input}
	if w.recipe != "" {
		base.RecipeFile = filepath.Join(d.dir, "recipe.yaml")
		if err := os.WriteFile(base.RecipeFile, []byte(w.recipe), 0o644); err != nil {
			return nil, err
		}
	}

	// Reference: the simplest configuration — the in-process batch
	// executor with no cache, spill or fleet, planned from static cost
	// hints. With no stream engine and no target_mem_mb it has neither a
	// partitioned index nor spilling. It runs with np workers: worker
	// count never changes an export. Its measured op costs become the
	// profile sidecar every timed run starts from, so all timed runs
	// execute the same plan.
	refSpec := base
	refSpec.Backend, refSpec.NP, refSpec.Passes = backendBatch, np, 1
	refSpec.WorkDir, refSpec.ExportDir = filepath.Join(d.dir, "ref", "work"), filepath.Join(d.dir, "ref", "out")
	d.logf("input: %d docs, %.1f MB", rec.Input.Docs, rec.Input.MB)
	refRes, err := d.spawn(refSpec, "ref")
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	ref, err := hashExports(refRes.Exports[0])
	if err != nil {
		return nil, err
	}
	rec.Input.KeptShare = float64(ref.docs) / float64(max(rec.Input.Docs, 1))

	spec := base
	spec.Backend, spec.NP, spec.Workers, spec.WorkerBin = w.backend, np, w.workers, d.workerBin
	if w.backend == backendStream {
		spec.ShardSize = shardSize
	}
	spec.UseCache, spec.TargetMem, spec.Passes = w.useCache, w.targetMemMB, w.passes
	rec.Config = spec
	planSpec := spec
	planSpec.WorkDir = refSpec.WorkDir
	plan, err := buildPlan(&planSpec)
	if err != nil {
		return nil, err
	}
	rec.Plan = plan
	settle()
	d.logf("reference export: %d docs; timed loop starts", ref.docs)
	return &setup{spec: spec, ref: ref, plan: plan, sidecar: filepath.Join(refSpec.WorkDir, "profiles")}, nil
}

// timedLoop runs one job at a time until --seconds have passed and
// returns the runs that passed their checks, split by kind, and the
// count of runs that failed.
func (d *harness) timedLoop(su *setup, rec *runRecord) (untraced, traced []*childResult, failed int, err error) {
	loopStart := time.Now()
	for i := 0; ; i++ {
		isTraced := d.trace && i%2 == 1
		it := su.spec
		itDir := filepath.Join(d.dir, fmt.Sprintf("it%03d", i))
		it.WorkDir, it.ExportDir = filepath.Join(itDir, "work"), filepath.Join(itDir, "out")
		it.Trace, it.ProbeDir = isTraced, filepath.Join(itDir, "probe")
		if err := copyDir(su.sidecar, filepath.Join(it.WorkDir, "profiles")); err != nil {
			return nil, nil, 0, err
		}
		res, err := d.spawn(it, fmt.Sprintf("it%03d", i))
		msg := ""
		if err != nil {
			msg = err.Error()
		} else {
			if d.beforeCheck != nil {
				d.beforeCheck(res)
			}
			msg = checkRun(res, su.ref, su.plan)
		}
		switch {
		case msg != "":
			failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("run %d: %s", i, msg))
		case isTraced:
			traced = append(traced, res)
		default:
			untraced = append(untraced, res)
		}
		if res != nil {
			d.logf("run %d (traced=%v): run %.3fs, setup %.4fs, wall %.3fs %s", i, isTraced, res.RunS, res.SetupS, res.WallS, msg)
		}
		if err := os.RemoveAll(itDir); err != nil {
			return nil, nil, 0, err
		}
		settle()
		// A traced invocation needs at least one run of each kind.
		done := time.Since(loopStart) >= time.Duration(d.seconds)*time.Second && (!d.trace || i >= 1)
		if done || time.Since(d.started) > loopDeadline {
			return untraced, traced, failed, nil
		}
	}
}

// endToEnd lists the untraced metrics, each the median over the timed
// runs of one invocation. pass_rate is added from the run counts.
var endToEnd = []struct {
	name, unit string
	of         func(*childResult) float64
}{
	{"docs_per_s", "1/s", func(r *childResult) float64 { return float64(r.Docs) / r.RunS }},
	{"setup_s", "s", func(r *childResult) float64 { return r.SetupS }},
	{"peak_rss_mb", "MB", func(r *childResult) float64 { return r.PeakRSSMB }},
	{"cpu_s", "s", func(r *childResult) float64 { return r.CPUS }},
	{"allocs_per_doc", "count", func(r *childResult) float64 { return float64(r.Allocs) / float64(max(r.Docs, 1)) }},
	{"workdir_mb", "MB", func(r *childResult) float64 { return float64(r.WorkDirBytes) / (1 << 20) }},
}

// checkRun compares a run's plan with the set-up plan (when given) and
// every pass's export with the reference; "" means the run is correct.
func checkRun(res *childResult, ref reference, setupPlan []string) string {
	if len(res.Exports) == 0 {
		return "no export"
	}
	for i, p := range res.Plans {
		if setupPlan != nil && !slices.Equal(p, setupPlan) {
			return fmt.Sprintf("pass %d executed plan %v, set-up plan was %v", i+1, p, setupPlan)
		}
	}
	for i, files := range res.Exports {
		got, err := hashExports(files)
		if err != nil {
			return err.Error()
		}
		if got.sum != ref.sum {
			return fmt.Sprintf("pass %d export differs from the reference: %d docs/%d bytes vs %d docs/%d bytes",
				i+1, got.docs, got.bytes, ref.docs, ref.bytes)
		}
	}
	return ""
}

// hashExports hashes the concatenation of export files in order.
func hashExports(files []string) (reference, error) {
	h := sha256.New()
	var ref reference
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return ref, err
		}
		br := bufio.NewReader(fh)
		for {
			line, err := br.ReadSlice('\n')
			if len(line) > 0 {
				h.Write(line)
				ref.bytes += int64(len(line))
				if line[len(line)-1] == '\n' {
					ref.docs++
				}
			}
			if err == bufio.ErrBufferFull {
				continue
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				fh.Close()
				return ref, err
			}
		}
		fh.Close()
	}
	ref.sum = hex.EncodeToString(h.Sum(nil))
	return ref, nil
}

// buildPlan plans the recipe exactly as a timed run will: same
// overrides, same work dir contents (the captured sidecar).
func buildPlan(spec *childSpec) ([]string, error) {
	r, err := loadRecipe(spec)
	if err != nil {
		return nil, err
	}
	p, err := plan.Build(r)
	if err != nil {
		return nil, err
	}
	return planOrder(p), nil
}

// describeInput measures the generated corpus: exact duplicates are
// documents whose text equals an earlier one's; near duplicates are the
// generator's lightly edited copies (meta.near_dup_of).
func describeInput(d *dataset.Dataset, seed int64) inputRecord {
	seen := map[[32]byte]bool{}
	exact, near := 0, 0
	for _, s := range d.Samples {
		k := sha256.Sum256([]byte(s.Text))
		if seen[k] {
			exact++
		}
		seen[k] = true
		if v, ok := s.GetString("meta.near_dup_of"); ok && v != "" {
			near++
		}
	}
	n := float64(max(d.Len(), 1))
	return inputRecord{Seed: seed, Docs: d.Len(), ExactDupShare: float64(exact) / n, NearDupShare: float64(near) / n}
}

// spawn runs one child process in its own process group and waits for
// it and everything it started. The group is killed on timeout.
func (d *harness) spawn(spec childSpec, tag string) (*childResult, error) {
	specPath := filepath.Join(d.dir, tag+".spec.json")
	outPath := filepath.Join(d.dir, tag+".result.json")
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(d.self, "-child", specPath, "-child-out", outPath)
	cmd.Env = scrubbedEnv()
	cmd.Stdout = os.Stderr // keep this process's stdout for the result
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pgid := cmd.Process.Pid
	timer := time.AfterFunc(childTimeout, func() { _ = syscall.Kill(-pgid, syscall.SIGKILL) })
	waitErr := cmd.Wait()
	timer.Stop()
	reapGroup(pgid)
	if waitErr != nil {
		return nil, fmt.Errorf("child %s: %w", tag, waitErr)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child %s result: %w", tag, err)
	}
	return &res, nil
}

// settle flushes the filesystem, so the writeback and block discards
// caused by one run's files and their deletion complete before the
// next run starts instead of slowing it.
func settle() { syscall.Sync() }

// reapGroup kills whatever is left in a child's process group and waits
// until the group is empty.
func reapGroup(pgid int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := syscall.Kill(-pgid, 0); errors.Is(err, syscall.ESRCH) {
			return
		}
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		time.Sleep(10 * time.Millisecond)
	}
}

// scrubbedEnv drops DJ_* variables, which would override recipe
// settings (config.Recipe.ApplyEnv) or inject faults into workers.
func scrubbedEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "DJ_") {
			env = append(env, kv)
		}
	}
	return env
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}

// writeTrace saves the traced run's spans for inspection.
func (d *harness) writeTrace(r *childResult) (string, error) {
	dir := filepath.Join(d.buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", d.w.name, d.seed))
	raw, err := json.MarshalIndent(map[string]any{"workload": d.w.name, "seed": d.seed, "spans": r.Spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianBy returns the element whose key is the lower median.
func medianBy(rs []*childResult, key func(*childResult) float64) *childResult {
	s := append([]*childResult(nil), rs...)
	sort.Slice(s, func(i, j int) bool { return key(s[i]) < key(s[j]) })
	return s[(len(s)-1)/2]
}

// hostRecord identifies the machine and the code measured.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision, suffixed "-dirty" when the build had
	// uncommitted changes, or "unknown" outside a git checkout.
	Commit string `json:"commit"`
	// SourceSHA256 hashes the module's Go sources and go.mod, which
	// identifies the code where no VCS metadata exists, as in a plain
	// source checkout.
	SourceSHA256 string `json:"source_sha256"`
}

func hostInfo() hostRecord {
	h := hostRecord{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", CPUModel: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "-dirty"
			}
		}
	}
	h.SourceSHA256 = sourceHash(".")
	return h
}

// sourceHash hashes every .go file and go.mod under root, in path
// order, skipping build output.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() {
			if name := e.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
