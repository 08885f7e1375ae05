// Package remote is the executor glue of the multi-process runtime: the
// djworker-side HTTP server that applies shard-local plan ops to shards
// shipped by a coordinator, and the coordinator-side worker pool that
// spawns/dials workers, routes stages through the dist scheduler, and
// folds worker measurements back into the run's journal and report.
//
// The wire protocol itself (frames, endpoints, validation) lives in
// internal/dist; this package supplies the execution behind it. A
// worker refuses a configure whose protocol version differs from its
// own; otherwise both processes build the physical plan independently
// from the same recipe and measured profiles and verify they agree on a
// plan fingerprint, so a protocol- or sidecar-skewed worker is rejected
// at configure time instead of silently producing different outputs.
package remote

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// PlanFingerprint condenses the parts of a physical plan that must
// agree between coordinator and worker for distributed execution to be
// byte-identical to local: per node, the op name, its capability class,
// and its phase. Costs and provenance are deliberately excluded — they
// vary run to run without changing what executes.
func PlanFingerprint(p *plan.Plan) string {
	h := fnv.New64a()
	for i := range p.Nodes {
		n := &p.Nodes[i]
		fmt.Fprintf(h, "%s|%d|%d\x00", n.Op.Name(), n.Capability, n.Phase)
	}
	return fmt.Sprintf("%d:%016x", len(p.Nodes), h.Sum64())
}

// session is one configured run on a worker.
type session struct {
	runID  string
	plan   *plan.Plan
	runner *stream.OpRunner
	tele   *telemetry.Run
}

// WorkerServer serves one djworker process: configure once per run,
// then any number of concurrent run stage requests.
type WorkerServer struct {
	// ID is the worker's 1-based fleet position (journal lane).
	ID int
	// WorkDir is the worker's private work directory; its journal lives
	// under <WorkDir>/journal.
	WorkDir string
	// Fault is the armed fault injection (zero = healthy).
	Fault Fault

	mu   sync.Mutex
	runs int // run requests served, for the fault trigger
	sess *session
}

// Handler returns the worker's HTTP mux.
func (w *WorkerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", w.handleHealthz)
	mux.HandleFunc("/v1/configure", w.handleConfigure)
	mux.HandleFunc("/v2/run", w.handleRun)
	mux.HandleFunc("/v1/flush", w.handleFlush)
	return mux
}

func (w *WorkerServer) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	rw.Write([]byte("ok\n"))
}

func (w *WorkerServer) handleConfigure(rw http.ResponseWriter, req *http.Request) {
	var creq dist.ConfigureRequest
	if err := json.NewDecoder(req.Body).Decode(&creq); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	resp := w.configure(creq)
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(resp)
}

// configure rebuilds the coordinator's plan from the shipped recipe and
// profiles and verifies the fingerprint. The worker's recipe is the
// coordinator's with process-local fields overridden: its own work
// directory, no op cache (the coordinator owns resume), no listener.
func (w *WorkerServer) configure(creq dist.ConfigureRequest) dist.ConfigureResponse {
	reject := func(format string, args ...any) dist.ConfigureResponse {
		return dist.ConfigureResponse{Error: fmt.Sprintf(format, args...)}
	}
	if creq.Proto != dist.ProtoVersion {
		return reject("proto %d, worker speaks %d", creq.Proto, dist.ProtoVersion)
	}
	var r config.Recipe
	if err := json.Unmarshal(creq.Recipe, &r); err != nil {
		return reject("recipe: %v", err)
	}
	r.WorkDir = w.WorkDir
	r.UseCache = false
	r.UseCheckpoint = false
	r.Listen = ""
	r.EnableTrace = false
	// Profiles come over the wire, not from a sidecar the worker does
	// not have; nothing is persisted worker-side either.
	r.UseProfiles = false
	p, err := plan.BuildWithProfiles(&r, dist.FromProfiles(creq.Profiles))
	if err != nil {
		return reject("plan: %v", err)
	}
	fp := PlanFingerprint(p)
	if fp != creq.Fingerprint {
		return reject("plan fingerprint %s, coordinator has %s", fp, creq.Fingerprint)
	}
	stream.ConfigureSpill(p, &r)

	sess := &session{runID: creq.RunID, plan: p, runner: stream.NewOpRunner(p.Built(), r.Process, nil)}
	if r.Journal {
		tele, err := telemetry.NewRun(telemetry.RunOptions{
			JournalDir: filepath.Join(w.WorkDir, "journal"),
			RunID:      fmt.Sprintf("%s-w%d", creq.RunID, w.ID),
		})
		if err == nil {
			sess.tele = tele
			tele.Begin("worker", r.ProjectName, "coordinator", 0)
			sess.runner = sess.runner.WithObserver(stream.AttachTelemetry(tele, p))
		}
	}

	w.mu.Lock()
	old := w.sess
	w.sess = sess
	w.mu.Unlock()
	if old != nil && old.tele != nil {
		old.tele.End("ok", 0, 0, nil, nil)
		old.tele.Close()
	}
	return dist.ConfigureResponse{OK: true, Fingerprint: fp, PlanOps: len(p.Nodes)}
}

// faultGate arms the run counter and fires the injected fault when this
// request is the trigger. It reports true when the fault consumed the
// request (corrupt mode already wrote garbage).
func (w *WorkerServer) faultGate(rw http.ResponseWriter) (sess *session, handled bool) {
	w.mu.Lock()
	idx := w.runs
	w.runs++
	sess = w.sess
	w.mu.Unlock()

	if w.Fault.Active() && idx == w.Fault.After {
		switch w.Fault.Mode {
		case "crash":
			// A kill -9 mid-stage: no response, no cleanup, no exit hooks.
			os.Exit(137)
		case "hang":
			// Never respond; the coordinator's client timeout converts
			// this into a failed attempt.
			select {}
		case "corrupt":
			rw.Write([]byte("{\"shard\":0,\"samples\":999}\nthis is not a frame\n"))
			return sess, true
		}
	}
	return sess, false
}

// runOps validates the requested op range and applies it to d. It
// returns the surviving dataset and per-op flows, or an error message
// for the response header.
func (w *WorkerServer) runOps(sess *session, h dist.RunHeader, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, string) {
	if sess == nil || sess.runID != h.RunID {
		return nil, nil, fmt.Sprintf("not configured for run %s", h.RunID)
	}
	if h.FromOp < 0 || h.ToOp > len(sess.plan.Nodes) || h.FromOp >= h.ToOp {
		return nil, nil, fmt.Sprintf("op range [%d,%d) outside plan of %d nodes", h.FromOp, h.ToOp, len(sess.plan.Nodes))
	}
	if d.Len() != h.Samples {
		return nil, nil, fmt.Sprintf("request says %d samples, payload has %d", h.Samples, d.Len())
	}

	flows := make([]dist.OpFlow, 0, h.ToOp-h.FromOp)
	for i := h.FromOp; i < h.ToOp; i++ {
		node := &sess.plan.Nodes[i]
		if node.Capability != plan.ShardLocal {
			return nil, nil, fmt.Sprintf("op %d (%s) is not shard-local", i, node.Op.Name())
		}
		in := d.Len()
		inBytes := d.TotalBytes()
		start := time.Now()
		out, err := sess.runner.ApplyOp(node.Op, d, 1)
		if err != nil {
			return nil, nil, fmt.Sprintf("op %d (%s): %v", i, node.Op.Name(), err)
		}
		dur := time.Since(start)
		d = out
		flows = append(flows, dist.OpFlow{
			PlanIdx: i, Name: node.Op.Name(),
			In: int64(in), Out: int64(d.Len()), Bytes: inBytes, DurNS: int64(dur),
		})
		if sess.tele != nil {
			sess.tele.Emit(telemetry.Event{
				Type: telemetry.EvOpComplete, Span: sess.tele.NewSpan(),
				Name: node.Op.Name(), Kind: stream.OpKind(node.Op), PlanIdx: i,
				Shard: h.Shard, In: int64(in), Out: int64(d.Len()),
				DurNS: int64(dur), Workers: 1,
			})
		}
	}
	return d, flows, ""
}

// handleRun is the stage endpoint: the request arrives as a streaming
// columnar frame, and when the coordinator asked for a delta and every
// op in range is a pure filter, the response is just the keep bitmap
// plus the kept samples' stats columns. Error responses are a header
// line only.
func (w *WorkerServer) handleRun(rw http.ResponseWriter, req *http.Request) {
	sess, handled := w.faultGate(rw)
	if handled {
		return
	}
	var h dist.RunHeader
	fr := dist.NewFrame2Reader(req.Body)
	fail := func(format string, args ...any) {
		line, _ := json.Marshal(dist.ResultHeader{Shard: h.Shard, Error: fmt.Sprintf(format, args...)})
		rw.Write(append(line, '\n'))
	}
	if err := fr.Header(&h); err != nil {
		fail("decode: %v", err)
		return
	}
	f, err := fr.Body()
	if err != nil {
		fail("decode: %v", err)
		return
	}
	if f.Delta {
		fail("delta frames are response-only")
		return
	}
	d := f.Data
	in := d.Samples

	// The worker re-derives delta eligibility instead of trusting the
	// header: the fingerprint handshake guarantees both plans agree, so
	// a disagreement here simply degrades to a full response.
	delta := false
	if nodes := deltaNodes(sess); h.Delta && h.FromOp >= 0 && h.ToOp <= len(nodes) {
		delta = true
		for i := h.FromOp; i < h.ToOp; i++ {
			if stream.OpKind(nodes[i].Op) != "filter" {
				delta = false
				break
			}
		}
	}

	out, flows, errmsg := w.runOps(sess, h, d)
	if errmsg != "" {
		fail("%s", errmsg)
		return
	}
	rh := dist.ResultHeader{Shard: h.Shard, Samples: out.Len(), Flows: flows}
	if delta {
		if mask, ok := dist.BuildKeepMask(in, out.Samples); ok {
			rh.Delta = true
			dist.WriteDeltaFrame2(rw, rh, mask, len(in), out.Samples)
			return
		}
		// The surviving samples are not an ordered subset of the input
		// (an op rewrote them); ship the full shard instead.
	}
	dist.WriteFrame2(rw, rh, out)
}

// deltaNodes returns the session's plan nodes (nil-safe for the
// eligibility scan; runOps re-validates the range and session).
func deltaNodes(sess *session) []plan.PhysicalOp {
	if sess == nil || sess.plan == nil {
		return nil
	}
	return sess.plan.Nodes
}

// handleFlush reports the worker's quiesced fused-member attribution.
// The coordinator calls it once, after the last stage of the run — the
// only point where taking the member atomics is race-free.
func (w *WorkerServer) handleFlush(rw http.ResponseWriter, req *http.Request) {
	var freq dist.FlushRequest
	if err := json.NewDecoder(req.Body).Decode(&freq); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	w.mu.Lock()
	sess := w.sess
	w.mu.Unlock()
	var resp dist.FlushResponse
	if sess != nil && sess.runID == freq.RunID {
		for i := range sess.plan.Nodes {
			ff, ok := sess.plan.Nodes[i].Op.(*plan.FusedFilter)
			if !ok {
				continue
			}
			for _, ms := range ff.TakeMemberStats() {
				resp.Members = append(resp.Members, dist.MemberFlow{
					PlanIdx: i, Name: ms.Name,
					In: int64(ms.In), Out: int64(ms.Out), Samples: int64(ms.Samples),
					DurNS: int64(ms.Duration),
				})
			}
		}
		if sess.tele != nil {
			sess.tele.End("ok", 0, 0, nil, nil)
			sess.tele.Close()
			sess.tele = nil
		}
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(resp)
}
