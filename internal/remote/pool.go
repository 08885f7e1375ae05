package remote

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// DefaultStageTimeout bounds one stage request end-to-end. A worker
// that hangs past it is treated exactly like one that crashed.
const DefaultStageTimeout = 2 * time.Minute

// readyTimeout bounds how long a spawned worker may take to print its
// ready line and answer healthz.
const readyTimeout = 15 * time.Second

// PoolOptions configures the coordinator's worker fleet.
type PoolOptions struct {
	// Workers spawns this many djworker subprocesses (ignored when
	// Addrs is set).
	Workers int
	// Addrs connects to already-running workers instead of spawning.
	Addrs []string
	// WorkerBin is the djworker binary to spawn (default: "djworker"
	// next to the running binary, falling back to $PATH).
	WorkerBin string
	// WorkDir is the coordinator's work directory; spawned worker W
	// gets <WorkDir>/workers/w<W> as its own.
	WorkDir string
	// StageTimeout bounds one stage request (DefaultStageTimeout when
	// zero).
	StageTimeout time.Duration
	// Env appends extra environment entries to spawned workers, after
	// the DJ_FAULT scrubbing described in fault.go (test hook).
	Env []string
}

// Pool is the coordinator's handle on the worker fleet: it owns the
// subprocesses, the routing scheduler, and the journal events that
// record fleet activity.
type Pool struct {
	sched   *dist.Scheduler
	procs   []*exec.Cmd
	timeout time.Duration
	runID   string
	tele    *telemetry.Run

	// Stage routing hint derived at configure time: per plan node,
	// whether it is a pure filter (keep-mask delta eligible).
	filterOnly []bool

	// Wire accounting, accumulated per completed stage exchange.
	wmu         sync.Mutex
	wire        map[int]*wireAgg
	wireFlushed bool
}

// wireAgg sums one worker's completed stage exchanges.
type wireAgg struct {
	deltaStages int
	sent        int64
	recv        int64
}

// NewPool spawns (or dials) the fleet and waits for every worker to
// answer healthz. On any startup failure the whole fleet is torn down.
func NewPool(opts PoolOptions) (*Pool, error) {
	timeout := opts.StageTimeout
	if timeout <= 0 {
		timeout = DefaultStageTimeout
	}
	p := &Pool{timeout: timeout, wire: map[int]*wireAgg{}}

	var clients []*dist.WorkerClient
	if len(opts.Addrs) > 0 {
		for i, addr := range opts.Addrs {
			clients = append(clients, dist.NewWorkerClient(i+1, addr, timeout))
		}
	} else {
		if opts.Workers <= 0 {
			return nil, fmt.Errorf("remote: no workers requested")
		}
		bin := opts.WorkerBin
		if bin == "" {
			bin = siblingBinary("djworker")
		}
		for i := 1; i <= opts.Workers; i++ {
			addr, cmd, err := p.spawn(bin, i, opts)
			if err != nil {
				p.Close()
				return nil, fmt.Errorf("remote: worker %d: %w", i, err)
			}
			p.procs = append(p.procs, cmd)
			clients = append(clients, dist.NewWorkerClient(i, addr, timeout))
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	for _, c := range clients {
		if err := waitHealthy(ctx, c); err != nil {
			p.Close()
			return nil, err
		}
	}
	p.sched = dist.NewScheduler(clients)
	return p, nil
}

// siblingBinary looks for name next to the running executable, falling
// back to $PATH resolution by bare name.
func siblingBinary(name string) string {
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), name)
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand
		}
	}
	return name
}

// spawn starts one djworker with an OS-assigned port and parses its
// "ready <addr>" stdout line. The child environment is scrubbed of
// DJ_FAULT; a per-worker DJ_FAULT_W<id> is forwarded as the child's
// DJ_FAULT so chaos tests can aim a fault at one fleet member.
func (p *Pool) spawn(bin string, id int, opts PoolOptions) (string, *exec.Cmd, error) {
	workDir := filepath.Join(opts.WorkDir, "workers", fmt.Sprintf("w%d", id))
	cmd := exec.Command(bin, "-id", fmt.Sprint(id), "-listen", "127.0.0.1:0", "-work-dir", workDir)
	perWorker := fmt.Sprintf("DJ_FAULT_W%d=", id)
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "DJ_FAULT=") || strings.HasPrefix(kv, "DJ_FAULT_W") {
			if strings.HasPrefix(kv, perWorker) {
				env = append(env, "DJ_FAULT="+kv[len(perWorker):])
			}
			continue
		}
		env = append(env, kv)
	}
	for _, kv := range opts.Env {
		if strings.HasPrefix(kv, perWorker) {
			env = append(env, "DJ_FAULT="+kv[len(perWorker):])
			continue
		}
		if strings.HasPrefix(kv, "DJ_FAULT_W") {
			continue
		}
		env = append(env, kv)
	}
	cmd.Env = env
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "ready "); ok {
				addrCh <- strings.TrimSpace(rest)
				break
			}
		}
		close(addrCh)
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			cmd.Process.Kill()
			return "", cmd, fmt.Errorf("exited before printing ready line")
		}
		return addr, cmd, nil
	case <-time.After(readyTimeout):
		cmd.Process.Kill()
		return "", cmd, fmt.Errorf("no ready line within %s", readyTimeout)
	}
}

func waitHealthy(ctx context.Context, c *dist.WorkerClient) error {
	for {
		err := c.Healthz(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("remote: worker %d (%s) never became healthy: %w", c.ID, c.Addr, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Configure ships the recipe, the planner's measured profiles and the
// plan fingerprint to every worker, and journals one worker_start per
// fleet member. A worker that explicitly rejects the configure fails
// the run — a fingerprint mismatch means distributed execution would
// not be byte-identical, which is never worth degrading into silently.
// A worker that merely became unreachable since its health check is
// marked dead (journaled as a retry) and the rest of the fleet carries
// its load; only a fully unreachable fleet fails.
func (p *Pool) Configure(r *config.Recipe, pl *plan.Plan, runID string, tele *telemetry.Run) error {
	p.runID, p.tele = runID, tele
	p.filterOnly = make([]bool, len(pl.Nodes))
	for i := range pl.Nodes {
		p.filterOnly[i] = stream.OpKind(pl.Nodes[i].Op) == "filter"
	}
	rawRecipe, err := json.Marshal(r)
	if err != nil {
		return err
	}
	var profiles []dist.StoredProfile
	if pl.ProfilePath != "" {
		if set, err := dist.LoadProfiles(pl.ProfilePath); err == nil {
			profiles = set.Export()
		}
	}
	req := dist.ConfigureRequest{
		Proto: dist.ProtoVersion, RunID: runID, Recipe: rawRecipe,
		Profiles: profiles, Fingerprint: PlanFingerprint(pl),
	}
	configured := 0
	for _, c := range p.sched.Clients() {
		if err := c.Configure(req); err != nil {
			var rej *dist.RejectError
			if errors.As(err, &rej) {
				return err
			}
			p.sched.Fail(c)
			if tele != nil {
				tele.Emit(telemetry.Event{
					Type: telemetry.EvWorkerRetry, Worker: c.ID, Why: err.Error(),
				})
			}
			continue
		}
		configured++
		if tele != nil {
			tele.Emit(telemetry.Event{
				Type: telemetry.EvWorkerStart, Parent: tele.RunSpan(),
				Worker: c.ID, Addr: c.Addr,
			})
		}
	}
	if configured == 0 {
		return fmt.Errorf("remote: no worker accepted the configure: %w", dist.ErrNoWorkers)
	}
	return nil
}

// RunStage routes one shard-local stage [fromOp, toOp) for one shard:
// home-affine scheduling, steals journaled as shard_steal, failed
// attempts journaled as worker_retry and retried on surviving workers.
// When the whole fleet is dead it returns dist.ErrNoWorkers and the
// caller executes the stage in-process — same ops, same order, same
// bytes.
func (p *Pool) RunStage(shard, fromOp, toOp int, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error) {
	h := dist.RunHeader{
		RunID: p.runID, Shard: shard, FromOp: fromOp, ToOp: toOp,
		Delta: p.deltaEligible(fromOp, toOp),
	}
	for {
		route := p.sched.Pick(shard)
		if route.Worker == nil {
			return nil, nil, 0, dist.ErrNoWorkers
		}
		if route.Stolen && p.tele != nil {
			p.tele.Emit(telemetry.Event{
				Type: telemetry.EvShardSteal, Worker: route.Worker.ID,
				Shard: shard, Why: route.Why,
			})
		}
		out, rh, ws, err := route.Worker.RunStage(h, d)
		if err != nil {
			p.sched.Fail(route.Worker)
			if p.tele != nil {
				p.tele.Emit(telemetry.Event{
					Type: telemetry.EvWorkerRetry, Worker: route.Worker.ID,
					Shard: shard, Why: err.Error(),
				})
			}
			continue
		}
		p.sched.Done(route.Worker)
		p.observeWire(route.Worker.ID, ws)
		return out, rh.Flows, route.Worker.ID, nil
	}
}

// deltaEligible reports whether every plan node in [fromOp, toOp) is a
// pure filter, making the stage a keep-mask delta candidate.
func (p *Pool) deltaEligible(fromOp, toOp int) bool {
	if fromOp < 0 || toOp > len(p.filterOnly) || fromOp >= toOp {
		return false
	}
	for i := fromOp; i < toOp; i++ {
		if !p.filterOnly[i] {
			return false
		}
	}
	return true
}

// observeWire folds one completed stage exchange into the per-worker
// accounting and the live metrics counters.
func (p *Pool) observeWire(worker int, ws dist.WireStat) {
	p.wmu.Lock()
	agg := p.wire[worker]
	if agg == nil {
		agg = &wireAgg{}
		p.wire[worker] = agg
	}
	agg.sent += ws.Sent
	agg.recv += ws.Recv
	if ws.Delta {
		agg.deltaStages++
	}
	p.wmu.Unlock()
	if p.tele != nil {
		p.tele.ObserveWire(worker, ws.Sent, ws.Recv)
	}
}

// DistStats snapshots the fleet's run statistics for the report,
// including the wire accounting, and journals one worker_wire event per
// worker the first time it runs (the stream engine calls it once, after
// the last stage).
func (p *Pool) DistStats() *dist.RunStats {
	st := p.sched.Stats()
	p.wmu.Lock()
	defer p.wmu.Unlock()
	for i := range st.Workers {
		agg := p.wire[st.Workers[i].Worker]
		if agg == nil {
			continue
		}
		st.Workers[i].DeltaStages = agg.deltaStages
		st.Workers[i].BytesSent = agg.sent
		st.Workers[i].BytesRecv = agg.recv
		st.DeltaStages += agg.deltaStages
		st.BytesSent += agg.sent
		st.BytesRecv += agg.recv
		if p.tele != nil && !p.wireFlushed {
			p.tele.Emit(telemetry.Event{
				Type: telemetry.EvWorkerWire, Worker: st.Workers[i].Worker,
				DeltaStages: agg.deltaStages,
				BytesSent:   agg.sent, BytesRecv: agg.recv,
			})
		}
	}
	p.wireFlushed = true
	return &st
}

// FinishMembers flushes every surviving worker and returns the summed
// fused-member attribution across the fleet, in plan order. Workers
// that died mid-run lose their member counts — the coordinator's
// retries re-executed their shards elsewhere, so flow totals stay
// correct; only the per-member duration split loses the dead worker's
// share.
func (p *Pool) FinishMembers() []dist.MemberFlow {
	type key struct {
		planIdx int
		name    string
	}
	sums := map[key]*dist.MemberFlow{}
	var order []key
	for _, c := range p.sched.Live() {
		resp, err := c.Flush(p.runID)
		if err != nil {
			continue
		}
		for _, m := range resp.Members {
			k := key{m.PlanIdx, m.Name}
			if cur, ok := sums[k]; ok {
				cur.In += m.In
				cur.Out += m.Out
				cur.Samples += m.Samples
				cur.DurNS += m.DurNS
			} else {
				mc := m
				sums[k] = &mc
				order = append(order, k)
			}
		}
	}
	out := make([]dist.MemberFlow, 0, len(order))
	for _, k := range order {
		out = append(out, *sums[k])
	}
	return out
}

// Close tears the fleet down: SIGTERM, a short grace period, then
// SIGKILL. Dialed (non-spawned) workers are left running.
func (p *Pool) Close() {
	for _, cmd := range p.procs {
		if cmd.Process != nil {
			cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	deadline := time.After(3 * time.Second)
	done := make(chan struct{})
	go func() {
		for _, cmd := range p.procs {
			cmd.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		for _, cmd := range p.procs {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
		}
		<-done
	}
}
