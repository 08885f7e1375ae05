package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/format"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// childSpec is one run handed to a child process: the recipe, the
// input file, and the engine configuration. The child is a fresh
// process per run, as a djprocess invocation is, so peak RSS, CPU and
// allocation counts cover exactly one run.
type childSpec struct {
	Builtin    string `json:"builtin,omitempty"`
	RecipeFile string `json:"recipe_file,omitempty"`
	Input      string `json:"input"`
	WorkDir    string `json:"work_dir"`
	ExportDir  string `json:"export_dir"`
	Backend    string `json:"backend"`
	NP         int    `json:"np"`
	Workers    int    `json:"workers,omitempty"`
	WorkerBin  string `json:"worker_bin,omitempty"`
	ShardSize  int    `json:"shard_size,omitempty"`
	UseCache   bool   `json:"use_cache"`
	TargetMem  int    `json:"target_mem_mb,omitempty"`
	Passes     int    `json:"passes"`
	Trace      bool   `json:"trace,omitempty"`
	// ProbeDir is scratch space for the traced cache probe (outside
	// WorkDir, so workdir_mb is not affected).
	ProbeDir string `json:"probe_dir,omitempty"`
}

// childResult is what a child reports back.
type childResult struct {
	// Docs counts input documents processed, over all passes.
	Docs int `json:"docs"`
	// RunS sums engine entry → export closed over all passes.
	RunS float64 `json:"run_s"`
	// SetupS sums per-pass set-up: recipe → plan, sidecar load, source
	// open, fleet spawn and configure.
	SetupS float64 `json:"setup_s"`
	// WallS spans first set-up start to last teardown end.
	WallS        float64    `json:"wall_s"`
	PeakRSSMB    float64    `json:"peak_rss_mb"`
	CPUS         float64    `json:"cpu_s"`
	Allocs       uint64     `json:"allocs"`
	WorkDirBytes int64      `json:"work_dir_bytes"`
	Plans        [][]string `json:"plans"`
	Exports      [][]string `json:"exports"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// loadRecipe resolves the spec's recipe with its overrides applied, as
// djprocess does for -builtin/-recipe plus its flags. Recipe settings
// from DJ_* environment variables are scrubbed by the harness.
func loadRecipe(s *childSpec) (*config.Recipe, error) {
	var (
		r   *config.Recipe
		err error
	)
	if s.Builtin != "" {
		r, err = config.BuiltinRecipe(s.Builtin)
	} else {
		r, err = config.Load(s.RecipeFile)
	}
	if err != nil {
		return nil, err
	}
	r.DatasetPath = s.Input
	r.Sources = nil
	r.NP = s.NP
	r.UseCache = s.UseCache
	r.UseCheckpoint = false
	r.TargetMemMB = s.TargetMem
	r.UseProfiles = true
	r.Journal = true
	r.WorkDir = s.WorkDir
	return r, nil
}

// recipeName is the recipe as the journal's run_start names it.
func recipeName(s *childSpec) string {
	if s.Builtin != "" {
		return s.Builtin
	}
	return s.RecipeFile
}

// planOrder renders a plan's executed op order, fused members inline.
func planOrder(p *plan.Plan) []string {
	out := make([]string, len(p.Nodes))
	for i := range p.Nodes {
		out[i] = p.Nodes[i].Op.Name()
	}
	return out
}

// passOut is what one pass hands to the metric collection.
type passOut struct {
	report    *stream.Report
	batch     *core.Report
	plan      *plan.Plan
	journal   string
	exports   []string
	planS     float64
	distSetup float64
}

func runChild(specPath, outPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec childSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs

	var rec *recorder
	if spec.Trace {
		rec = newRecorder()
	}
	tot := &layerTotals{flows: map[string]*opTotals{}}
	res := &childResult{}
	rootID := rec.open()
	rootStart := time.Now()
	var passes []passOut
	for pass := 0; pass < spec.Passes; pass++ {
		po, err := runPass(&spec, pass, rec, rootID, tot, res)
		if err != nil {
			return fmt.Errorf("pass %d: %w", pass+1, err)
		}
		passes = append(passes, po)
	}
	rootEnd := time.Now()
	rec.close(rootID, 0, "run", "", rootStart, rootEnd)
	res.WallS = rootEnd.Sub(rootStart).Seconds()

	runtime.ReadMemStats(&ms)
	res.Allocs = ms.Mallocs - allocs0
	res.CPUS = cpuSeconds()
	res.PeakRSSMB = peakRSSMB()
	res.WorkDirBytes = dirBytes(spec.WorkDir)
	if spec.Trace {
		res.Spans = rec.snapshot()
		layersOut, err := collectLayers(&spec, passes, tot, res.Spans, rootID)
		if err != nil {
			return err
		}
		res.Layers = layersOut
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, out, 0o644)
}

// runPass is one djprocess-equivalent invocation: set-up, run, export,
// teardown, wired as cmd/djprocess wires the chosen backend. Set-up
// spans close at the engine entry; the run ends with the export closed.
func runPass(spec *childSpec, pass int, rec *recorder, rootID int, tot *layerTotals, res *childResult) (passOut, error) {
	p := &passRun{spec: spec, rec: rec, rootID: rootID, tot: tot,
		exportDir: filepath.Join(spec.ExportDir, fmt.Sprintf("p%d", pass)),
		setupID:   rec.open(), setupStart: time.Now()}
	recipe, err := loadRecipe(spec)
	if err != nil {
		return p.out, err
	}
	tele, err := telemetry.NewRun(telemetry.RunOptions{JournalDir: filepath.Join(recipe.WorkDir, "journal")})
	if err != nil {
		return p.out, err
	}
	p.out.journal = tele.JournalPath()
	var runS float64
	var docs int
	if spec.Backend == backendBatch {
		runS, docs, err = p.batch(recipe, tele)
	} else {
		runS, docs, err = p.stream(recipe, tele)
	}
	if err != nil {
		return p.out, err
	}
	res.SetupS += p.setupS
	res.RunS += runS
	res.Docs += docs
	res.Plans = append(res.Plans, planOrder(p.out.plan))
	res.Exports = append(res.Exports, p.out.exports)
	return p.out, nil
}

// passRun carries one pass's state between its set-up and run halves.
type passRun struct {
	spec       *childSpec
	rec        *recorder
	rootID     int
	tot        *layerTotals
	exportDir  string
	setupID    int
	setupStart time.Time
	setupS     float64
	out        passOut
}

// endSetup closes the set-up span at the engine entry.
func (p *passRun) endSetup() time.Time {
	now := time.Now()
	p.rec.close(p.setupID, p.rootID, "setup", layerSetup, p.setupStart, now)
	p.setupS = now.Sub(p.setupStart).Seconds()
	return now
}

// batch runs the whole-dataset executor: load, run, export.
func (p *passRun) batch(recipe *config.Recipe, tele *telemetry.Run) (float64, int, error) {
	rec, root := p.rec, p.rootID
	var exec *core.Executor
	d, err := rec.timed(p.setupID, "core.NewExecutor", layerPlan, func() error {
		var err error
		exec, err = core.NewExecutor(recipe)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	p.out.planS = d.Seconds()
	exec.EnableTelemetry(tele)
	p.out.plan = exec.Plan()
	runStart := p.endSetup()

	var data *dataset.Dataset
	d, err = rec.timed(root, "core.LoadInput", layerFormat, func() error {
		var err error
		data, err = core.LoadInput(recipe)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	p.tot.addRead(d, data.TotalBytes())
	tele.Begin(backendBatch, recipeName(p.spec), p.spec.Input, data.Len())
	var (
		out    *dataset.Dataset
		report *core.Report
	)
	_, err = rec.timed(root, "core.Executor.Run", layerEngine, func() error {
		var err error
		out, report, err = exec.Run(data)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	path := filepath.Join(p.exportDir, "out.jsonl")
	d, err = rec.timed(root, "format.Export", layerSink, func() error { return format.Export(out, path) })
	if err != nil {
		return 0, 0, err
	}
	p.tot.addSink(d)
	runS := time.Since(runStart).Seconds()
	p.out.batch = report
	p.out.exports = []string{path}
	_, err = rec.timed(root, "teardown", layerTeardown, func() error {
		tele.End("ok", report.InCount(), out.Len(), nil, nil)
		return tele.Close()
	})
	return runS, data.Len(), err
}

// stream runs the shard-pipelined engine, coordinating a djworker
// fleet when the spec asks for one.
func (p *passRun) stream(recipe *config.Recipe, tele *telemetry.Run) (float64, int, error) {
	rec, spec := p.rec, p.spec
	var pool *remote.Pool
	if spec.Workers > 0 {
		d, err := rec.timed(p.setupID, "remote.NewPool", layerDistSetup, func() error {
			var err error
			pool, err = remote.NewPool(remote.PoolOptions{
				Workers: spec.Workers, WorkerBin: spec.WorkerBin, WorkDir: recipe.WorkDir,
			})
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		p.out.distSetup += d.Seconds()
	}
	closePool := func() {
		if pool != nil {
			pool.Close()
			pool = nil
		}
	}
	defer closePool()

	opts := stream.Options{ShardSize: spec.ShardSize, Telemetry: tele}
	var traced *tracedPool
	if pool != nil {
		opts.Dispatch = pool
		if rec != nil {
			traced = &tracedPool{Pool: pool, rec: rec, tot: p.tot}
			opts.Dispatch = traced
		}
	}
	var eng *stream.Engine
	d, err := rec.timed(p.setupID, "stream.New", layerPlan, func() error {
		var err error
		eng, err = stream.New(recipe, opts)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	p.out.planS = d.Seconds()
	p.out.plan = eng.Plan()
	tele.Begin("stream", recipeName(spec), spec.Input, 0)
	if pool != nil {
		d, err := rec.timed(p.setupID, "pool.Configure", layerDistSetup, func() error {
			return pool.Configure(recipe, eng.Plan(), tele.ID(), tele)
		})
		if err != nil {
			return 0, 0, err
		}
		p.out.distSetup += d.Seconds()
	}
	var src stream.Source
	_, err = rec.timed(p.setupID, "stream.OpenSource", layerFormat, func() error {
		var err error
		src, err = stream.OpenSource(spec.Input, spec.ShardSize)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	sharded, err := stream.NewShardedJSONLSink(filepath.Join(p.exportDir, "out"))
	if err != nil {
		src.Close()
		return 0, 0, err
	}
	runStart := p.endSetup()

	engID := rec.open()
	var sink stream.Sink = sharded
	if rec != nil {
		src = &tracedSource{Source: src, rec: rec, parent: engID, tot: p.tot}
		sink = &tracedSink{inner: sharded, rec: rec, parent: engID, tot: p.tot}
		if traced != nil {
			traced.parent = engID
		}
	}
	report, err := eng.Run(src, sink)
	runEnd := time.Now()
	rec.close(engID, p.rootID, "engine.Run", layerEngine, runStart, runEnd)
	if err != nil {
		return 0, 0, err
	}
	p.out.report = report
	p.out.exports = sharded.Paths()
	_, err = rec.timed(p.rootID, "teardown", layerTeardown, func() error {
		tele.End("ok", report.InCount, report.OutCount, nil, func(e *telemetry.Event) {
			e.PlanOps = report.PlanSize
			e.Shards = report.ShardCount
			e.Resumed = report.ResumedShards
		})
		closePool()
		return tele.Close()
	})
	return runEnd.Sub(runStart).Seconds(), report.InCount, err
}

// cpuSeconds is user+sys CPU of this process and every child it has
// waited for (the fleet's djworkers, after Pool.Close).
func cpuSeconds() float64 {
	var total float64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return total
}

// peakRSSMB reads this process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(line[len("VmHWM:"):]), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// dirBytes sums the sizes of regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// collectLayers turns a traced run's reports, journal and wrapper totals
// into the per-layer metrics.
func collectLayers(spec *childSpec, passes []passOut, tot *layerTotals, spans []span, rootID int) (map[string]float64, error) {
	m := map[string]float64{}
	for _, name := range perLayerNames() {
		m[name] = 0
	}
	tot.mu.Lock()
	defer tot.mu.Unlock()

	self, residual, wall := selfTimes(spans, rootID)
	for _, l := range layers {
		m["self."+l+"_s"] = self[l]
	}
	m["trace.residual_s"] = residual
	m["trace.wall_s"] = wall

	m["format.read_s"] = tot.readS
	m["format.read_mb"] = float64(tot.readBytes) / (1 << 20)
	m["sink.write_s"] = tot.sinkS
	m["dist.stage_s"] = tot.stageS
	m["dist.worker_ops_s"] = tot.workerOpsS
	m["dist.wire_s"] = tot.stageS - tot.workerOpsS
	for name, ot := range tot.flows {
		if err := addOp(m, name, ot.s, ot.in, ot.out); err != nil {
			return nil, err
		}
	}

	var spillRuns, spillBytes, sinkBytes int64
	for _, p := range passes {
		m["plan.build_s"] += p.planS
		m["dist.setup_s"] += p.distSetup
		for _, path := range p.exports {
			if st, err := os.Stat(path); err == nil {
				sinkBytes += st.Size()
			}
		}
		events, err := telemetry.ReadJournal(p.journal)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		indexWait := map[int]time.Duration{}
		for _, e := range events {
			switch e.Type {
			case telemetry.EvIndex:
				indexWait[e.PlanIdx] += time.Duration(e.DurNS)
				m["stream.index_wait_s"] += time.Duration(e.DurNS).Seconds()
				m["stream.index_blocked"] += float64(e.Waits)
			case telemetry.EvSpill:
				if p.report != nil && e.PlanIdx >= 0 && e.PlanIdx < len(p.plan.Nodes) &&
					p.plan.Nodes[e.PlanIdx].Capability == plan.SharedIndex {
					spillRuns += e.SpillRuns
					spillBytes += e.Bytes
				}
			}
		}
		for _, st := range opStats(p) {
			node := &p.plan.Nodes[st.PlanIndex]
			switch {
			case st.CacheHit:
				continue // nothing executed: the time is cache reads, see cache.*
			case p.report != nil && p.report.Dist != nil && node.Capability == plan.ShardLocal:
				continue // dispatched: counted from the worker-side flows above
			case len(st.Members) > 0:
				for _, mb := range st.Members {
					if err := addOp(m, mb.Name, mb.Duration.Seconds(), int64(mb.In), int64(mb.Out)); err != nil {
						return nil, err
					}
				}
			default:
				cpu := opCPUSeconds(st, p.report != nil, node.Capability, indexWait[st.PlanIndex])
				if err := addOp(m, node.Op.Name(), cpu, int64(st.InCount), int64(st.OutCount)); err != nil {
					return nil, err
				}
			}
		}
		for i := range p.plan.Nodes {
			n := &p.plan.Nodes[i]
			// The stream engine spills shared-index stages through its own
			// partitioned index, journaled above, not through the op.
			if sp, ok := n.Op.(ops.Spiller); ok && !(p.report != nil && n.Capability == plan.SharedIndex) {
				ss := sp.SpillStats()
				spillRuns += ss.Runs
				spillBytes += ss.SpilledBytes
			}
		}
		if r := p.report; r != nil {
			m["stream.shards"] += float64(r.ShardCount)
			for _, sh := range r.Shards {
				m["stream.shard_s_max"] = max(m["stream.shard_s_max"], sh.Duration.Seconds())
			}
			if ds := r.Dist; ds != nil {
				m["dist.sent_mb"] += float64(ds.BytesSent) / (1 << 20)
				m["dist.recv_mb"] += float64(ds.BytesRecv) / (1 << 20)
				m["dist.retries"] += float64(ds.Retries)
				m["dist.fallbacks"] += float64(ds.Fallbacks)
			}
		}
	}
	m["sink.mb"] = float64(sinkBytes) / (1 << 20)
	m["spill.runs"] = float64(spillRuns)
	m["spill.mb"] = float64(spillBytes) / (1 << 20)

	if spec.UseCache {
		if err := cacheProbe(spec, passes, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// addOp adds one op's time and flow; every op a workload plans must be
// declared in layerOps.
func addOp(m map[string]float64, name string, s float64, in, out int64) error {
	if _, ok := m["ops."+name+".s"]; !ok {
		return fmt.Errorf("op %q has no per-layer metrics: add it to layerOps and BENCHMARK.json", name)
	}
	m["ops."+name+".s"] += s
	m["ops."+name+".in"] += float64(in)
	m["ops."+name+".out"] += float64(out)
	return nil
}

// opCPUSeconds puts one executed op's reported time on a CPU-seconds
// basis. Batch ops and stream barriers report wall time under Workers
// goroutines. Stream shard-local and shared-index ops report summed
// single-goroutine per-shard time; a shared-index op's sum includes its
// index resolution wait, which stream.index_wait_s reports instead.
func opCPUSeconds(st core.OpStat, streamed bool, c plan.Capability, indexWait time.Duration) float64 {
	switch {
	case !streamed || c == plan.Barrier:
		return st.Duration.Seconds() * float64(max(st.Workers, 1))
	case c == plan.SharedIndex:
		return (st.Duration - indexWait).Seconds()
	default:
		return st.Duration.Seconds()
	}
}

// opStats returns a pass's per-op statistics, whichever backend ran.
func opStats(p passOut) []core.OpStat {
	if p.report != nil {
		return p.report.OpStats
	}
	return p.batch.OpStats
}

// cacheProbe times cache.Store Get over every entry the cold pass wrote
// and Put of the same datasets into a scratch store, and reads the
// rerun's resume ratio.
func cacheProbe(spec *childSpec, passes []passOut, m map[string]float64) error {
	recipe, err := loadRecipe(spec)
	if err != nil {
		return err
	}
	dir := filepath.Join(spec.WorkDir, "stream-cache")
	store, err := cache.NewStore(dir, recipe.CacheCompression)
	if err != nil {
		return err
	}
	keys, err := store.Keys()
	if err != nil {
		return err
	}
	size, err := store.SizeOnDisk()
	if err != nil {
		return err
	}
	probe, err := cache.NewStore(spec.ProbeDir, recipe.CacheCompression)
	if err != nil {
		return err
	}
	var getS, putS float64
	for _, k := range keys {
		start := time.Now()
		d, ok, err := store.Get(k)
		getS += time.Since(start).Seconds()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("cache probe: entry %s vanished", k)
		}
		start = time.Now()
		if err := probe.Put(k, d); err != nil {
			return err
		}
		putS += time.Since(start).Seconds()
	}
	last := passes[len(passes)-1].report
	ratio := 0.0
	if last != nil && last.ShardCount > 0 {
		ratio = float64(last.ResumedShards) / float64(last.ShardCount)
	}
	m["cache.get_s"], m["cache.put_s"] = getS, putS
	m["cache.entries"], m["cache.mb"], m["cache.hit_ratio"] = float64(len(keys)), float64(size)/(1<<20), ratio
	return nil
}
