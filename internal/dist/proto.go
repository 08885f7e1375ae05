package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/dataset"
)

// This file is the coordinator/worker wire protocol for multi-process
// execution on one host. A djworker process serves four endpoints over
// localhost HTTP:
//
//	GET  /v1/healthz    liveness probe ("ok")
//	POST /v1/configure  JSON ConfigureRequest -> ConfigureResponse:
//	                    ship the recipe + measured profiles, build the
//	                    same physical plan, verify its fingerprint
//	POST /v2/run        frame in -> frame out: apply a contiguous range
//	                    of shard-local plan ops to one shard
//	POST /v1/flush      JSON FlushRequest -> FlushResponse: quiesced
//	                    end-of-run fused-member statistics
//
// Run requests and responses are the streaming binary columnar frames
// of frame2.go; a filter-only stage may be answered with a keep-mask
// delta instead of the shard. Responses are validated structurally —
// sample count and per-op flow indexes must match the header — and any
// mismatch is treated as a corrupt response, which the scheduler
// retries elsewhere.

// ProtoVersion guards the coordinator/worker wire format. The
// coordinator sends it in ConfigureRequest and a worker rejects any
// other version, so a stale binary on either side fails the configure
// explicitly (a RejectError) instead of misinterpreting frames.
const ProtoVersion = 2

// ConfigureRequest ships everything a worker needs to rebuild the
// coordinator's physical plan: the resolved recipe (JSON round-trip of
// config.Recipe) and the measured cost profiles the planner consumed,
// so measured-cost reordering makes identical decisions in both
// processes. Fingerprint is the coordinator's plan identity; the worker
// rejects the configure if its own plan disagrees.
type ConfigureRequest struct {
	Proto       int             `json:"proto"`
	RunID       string          `json:"run_id"`
	Recipe      json.RawMessage `json:"recipe"`
	Profiles    []StoredProfile `json:"profiles,omitempty"`
	Fingerprint string          `json:"fingerprint"`
}

// ConfigureResponse acknowledges a configure. On fingerprint or proto
// mismatch OK is false and Error says why.
type ConfigureResponse struct {
	OK          bool   `json:"ok"`
	Fingerprint string `json:"fingerprint"`
	PlanOps     int    `json:"plan_ops"`
	Error       string `json:"error,omitempty"`
}

// RunHeader is the request header line of a run frame: apply plan ops
// [FromOp, ToOp) to the attached shard. Delta asks for a keep-mask
// response when the range is filter-only (the worker re-derives
// eligibility from its own plan and falls back to a full frame if it
// disagrees).
type RunHeader struct {
	RunID   string `json:"run_id"`
	Shard   int    `json:"shard"`
	FromOp  int    `json:"from_op"`
	ToOp    int    `json:"to_op"`
	Samples int    `json:"samples"`
	Delta   bool   `json:"delta,omitempty"`
}

// OpFlow is one op's measured flow through one shard on a worker. The
// coordinator folds these into its own journal and report, tagged with
// the worker's lane.
type OpFlow struct {
	PlanIdx int    `json:"plan_idx"`
	Name    string `json:"name"`
	In      int64  `json:"in"`
	Out     int64  `json:"out"`
	Bytes   int64  `json:"bytes,omitempty"`
	DurNS   int64  `json:"dur_ns"`
}

// ResultHeader is the response header line of a run frame. Delta says
// the attached frame is a keep-mask delta rather than the full
// surviving shard.
type ResultHeader struct {
	Shard   int      `json:"shard"`
	Samples int      `json:"samples"`
	Delta   bool     `json:"delta,omitempty"`
	Flows   []OpFlow `json:"flows,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// FlushRequest asks a worker for its quiesced end-of-run statistics.
type FlushRequest struct {
	RunID string `json:"run_id"`
}

// MemberFlow is one fused-filter member's accumulated attribution on a
// worker, reported at flush time (member atomics are only safe to take
// once the worker is quiesced).
type MemberFlow struct {
	PlanIdx int    `json:"plan_idx"`
	Name    string `json:"name"`
	In      int64  `json:"in"`
	Out     int64  `json:"out"`
	Samples int64  `json:"samples"`
	DurNS   int64  `json:"dur_ns"`
}

// FlushResponse carries a worker's end-of-run fused-member statistics.
type FlushResponse struct {
	Members []MemberFlow `json:"members,omitempty"`
}

// WorkerClient is the coordinator's handle on one djworker process.
type WorkerClient struct {
	ID   int // 1-based worker ID (0 is the coordinator itself)
	Addr string
	http *http.Client
}

// sharedTransport carries every worker client: dispatch issues many
// small sequential requests per worker, and keeping connections alive
// across stages removes per-request TCP setup from the hot path.
var sharedTransport = &http.Transport{
	MaxIdleConns:        64,
	MaxIdleConnsPerHost: 8,
	IdleConnTimeout:     60 * time.Second,
}

// NewWorkerClient builds a client for one worker. The timeout bounds
// every request end-to-end — a hung worker surfaces as a timeout error,
// which the scheduler treats like any other failed attempt.
func NewWorkerClient(id int, addr string, timeout time.Duration) *WorkerClient {
	return &WorkerClient{ID: id, Addr: addr, http: &http.Client{
		Timeout:   timeout,
		Transport: sharedTransport,
	}}
}

func (c *WorkerClient) url(path string) string {
	return "http://" + c.Addr + path
}

// Healthz probes worker liveness.
func (c *WorkerClient) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/healthz"), nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: worker %d healthz: HTTP %d", c.ID, resp.StatusCode)
	}
	return nil
}

// RejectError is a worker's explicit refusal to configure — a proto or
// plan-fingerprint mismatch. It is a correctness failure the
// coordinator must fail the run on, unlike a transport error, which
// just means one fleet member died and the rest can carry its load.
type RejectError struct {
	Worker int
	Reason string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("dist: worker %d rejected configure: %s", e.Worker, e.Reason)
}

// Configure ships the plan inputs to the worker and verifies the plan
// fingerprint matches the coordinator's. An explicit refusal surfaces
// as *RejectError; anything else is a transport failure.
func (c *WorkerClient) Configure(req ConfigureRequest) error {
	var out ConfigureResponse
	if err := c.postJSON("/v1/configure", req, &out); err != nil {
		return err
	}
	if !out.OK {
		return &RejectError{Worker: c.ID, Reason: out.Error}
	}
	return nil
}

// Flush fetches the worker's quiesced end-of-run statistics.
func (c *WorkerClient) Flush(runID string) (FlushResponse, error) {
	var out FlushResponse
	err := c.postJSON("/v1/flush", FlushRequest{RunID: runID}, &out)
	return out, err
}

func (c *WorkerClient) postJSON(path string, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.url(path), "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: worker %d %s: HTTP %d: %s", c.ID, path, resp.StatusCode, truncate(body))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("dist: worker %d %s: %w", c.ID, path, err)
	}
	return nil
}

// RunStage ships one shard to the worker, applies plan ops
// [h.FromOp, h.ToOp), and returns the surviving samples plus per-op
// flows and wire accounting. The shard streams out through an io.Pipe
// as a columnar frame (no request-sized buffer), and the response is
// either a full frame or — when h.Delta was honoured — a keep-mask
// delta applied to the coordinator's retained samples. Structural
// mismatches (sample count, flow indexes) are reported as errors — a
// corrupt response is indistinguishable from a broken worker and must
// be retried elsewhere. All validation happens before any retained
// sample is touched, so a corrupt delta leaves d intact for the retry.
func (c *WorkerClient) RunStage(h RunHeader, d *dataset.Dataset) (*dataset.Dataset, ResultHeader, WireStat, error) {
	h.Samples = d.Len()
	var ws WireStat
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n, err := WriteFrame2(pw, h, d)
		ws.Sent = n
		pw.CloseWithError(err)
	}()
	resp, err := c.http.Post(c.url("/v2/run"), "application/x-dj-frame2", pr)
	// The transport finished with the body either way (success drains
	// it, failure closes it), so the encoder goroutine has exited.
	<-done
	if err != nil {
		return nil, ResultHeader{}, ws, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, ResultHeader{}, ws, fmt.Errorf("dist: worker %d run: HTTP %d: %s",
			c.ID, resp.StatusCode, truncate(body))
	}
	fr := NewFrame2Reader(resp.Body)
	var rh ResultHeader
	if err := fr.Header(&rh); err != nil {
		return nil, ResultHeader{}, ws, fmt.Errorf("dist: worker %d shard %d: %w", c.ID, h.Shard, err)
	}
	if rh.Error != "" {
		return nil, rh, ws, fmt.Errorf("dist: worker %d shard %d: %s", c.ID, h.Shard, rh.Error)
	}
	f, err := fr.Body()
	if err != nil {
		return nil, rh, ws, fmt.Errorf("dist: worker %d shard %d: %w", c.ID, h.Shard, err)
	}
	ws.Recv = f.Wire
	ws.Delta = f.Delta
	if rh.Delta != f.Delta {
		return nil, rh, ws, fmt.Errorf("dist: worker %d shard %d: header delta=%v, frame delta=%v",
			c.ID, h.Shard, rh.Delta, f.Delta)
	}
	if !f.Delta {
		if err := validateResult(h, rh, f.Data.Len()); err != nil {
			return nil, rh, ws, fmt.Errorf("dist: worker %d: %w", c.ID, err)
		}
		return f.Data, rh, ws, nil
	}
	if !h.Delta {
		return nil, rh, ws, fmt.Errorf("dist: worker %d shard %d: unrequested delta response", c.ID, h.Shard)
	}
	if f.InCount != d.Len() {
		return nil, rh, ws, fmt.Errorf("dist: worker %d shard %d: delta covers %d inputs, sent %d",
			c.ID, h.Shard, f.InCount, d.Len())
	}
	if err := validateResult(h, rh, f.Data.Len()); err != nil {
		return nil, rh, ws, fmt.Errorf("dist: worker %d: %w", c.ID, err)
	}
	kept := ApplyKeepMask(d.Samples, f.Mask)
	if len(kept) != f.Data.Len() {
		return nil, rh, ws, fmt.Errorf("dist: worker %d shard %d: mask keeps %d, frame carries %d",
			c.ID, h.Shard, len(kept), f.Data.Len())
	}
	for i, s := range kept {
		s.Stats = f.Data.Samples[i].Stats
	}
	return dataset.New(kept), rh, ws, nil
}

// validateResult rejects structurally corrupt run responses: wrong
// shard echo, sample count disagreeing with the payload, or per-op
// flows that do not cover exactly the requested plan range in order.
func validateResult(h RunHeader, rh ResultHeader, gotSamples int) error {
	if rh.Shard != h.Shard {
		return fmt.Errorf("shard %d: response for shard %d", h.Shard, rh.Shard)
	}
	if rh.Samples != gotSamples {
		return fmt.Errorf("shard %d: header says %d samples, payload has %d",
			h.Shard, rh.Samples, gotSamples)
	}
	if len(rh.Flows) != h.ToOp-h.FromOp {
		return fmt.Errorf("shard %d: %d flows for %d ops", h.Shard, len(rh.Flows), h.ToOp-h.FromOp)
	}
	for i, f := range rh.Flows {
		if f.PlanIdx != h.FromOp+i {
			return fmt.Errorf("shard %d: flow %d has plan_idx %d, want %d",
				h.Shard, i, f.PlanIdx, h.FromOp+i)
		}
		if f.In < 0 || f.Out < 0 || f.DurNS < 0 {
			return fmt.Errorf("shard %d: flow %d has negative counts", h.Shard, i)
		}
	}
	return nil
}

func truncate(b []byte) string {
	const max = 256
	if len(b) > max {
		b = b[:max]
	}
	return string(bytes.TrimSpace(b))
}
