package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// SchemaVersion identifies the journal event schema. It is stamped on
// the run_start event; readers reject journals from a newer schema.
// Version 2 added the distributed-runtime events (worker_start,
// worker_retry, shard_steal) and the worker/addr fields; version 3
// added the wire-transport accounting (worker_wire events and the
// bytes_sent/bytes_recv family); version 4 added the partitioned
// signature index contention events (index, with the partitions/waits
// fields); version 5 added persist_corrupt with the path field. Older
// journals remain valid, except those holding what later
// changes removed: the replan events of the removed runtime controller
// (an unknown event type) and the proto/raw_bytes_sent/raw_bytes_recv
// fields of the removed wire-version negotiation and frame compression
// (unknown fields). The strict reader rejects both.
const SchemaVersion = 5

// Journal event types. Every line in a journal file is one Event whose
// Type is one of these constants.
const (
	EvRunStart   = "run_start"
	EvPlan       = "plan"
	EvPhase      = "phase"
	EvSpanStart  = "span_start"
	EvSpanEnd    = "span_end"
	EvOpComplete = "op_complete"
	EvCacheHit   = "cache_hit"
	EvSpill      = "spill"
	EvTrace      = "trace"
	EvExport     = "export"
	EvRunEnd     = "run_end"

	// Distributed-runtime events (schema v2). worker_start records one
	// djworker joining the run; worker_retry records one failed stage
	// attempt against a worker (the shard was re-dispatched); shard_steal
	// records a shard routed away from its home worker — to balance load
	// or because the home worker is dead.
	EvWorkerStart = "worker_start"
	EvWorkerRetry = "worker_retry"
	EvShardSteal  = "shard_steal"

	// worker_wire (schema v3) is one worker's end-of-run transport
	// tally: bytes on the wire in each direction and how many stages
	// were answered with a keep-mask delta.
	EvWorkerWire = "worker_wire"

	// index (schema v4) is one shared-index stage's end-of-phase
	// contention tally: the partition count of its signature index, the
	// claims that blocked on in-order resolution (waits), and their
	// summed wait time (dur_ns).
	EvIndex = "index"

	// persist_corrupt (schema v5) is one persisted entry that failed
	// verification on load: its kind (cache | checkpoint), path and the
	// reason (why). The entry was deleted and its state recomputed.
	EvPersistCorrupt = "persist_corrupt"
)

// PlanOp is the journal's view of one physical plan node, embedded in
// the plan event.
type PlanOp struct {
	Name        string   `json:"name"`
	Members     []string `json:"members,omitempty"` // fused constituents
	Kind        string   `json:"kind,omitempty"`
	Phase       int      `json:"phase,omitempty"`
	CostNS      int64    `json:"cost_ns,omitempty"` // predicted ns/sample (0 = unmeasured)
	Selectivity float64  `json:"selectivity,omitempty"`
	Measured    bool     `json:"measured,omitempty"`
}

// PlanPass is one optimizer pass record with its wall time.
type PlanPass struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	DurNS  int64  `json:"dur_ns,omitempty"`
}

// Event is one journal line. Fields may be added in later schema
// versions; the few removals are listed at SchemaVersion. Numeric
// fields that do not apply to a given Type are omitted.
type Event struct {
	TS     int64  `json:"ts"` // unix nanoseconds
	Type   string `json:"type"`
	RunID  string `json:"run_id"`
	Span   int64  `json:"span,omitempty"`   // span ID (span_* / op_complete / phase)
	Parent int64  `json:"parent,omitempty"` // parent span ID

	Name    string `json:"name,omitempty"` // op / span / phase name
	Kind    string `json:"kind,omitempty"` // mapper | filter | deduplicator | shard | barrier | pass ...
	Backend string `json:"backend,omitempty"`
	Recipe  string `json:"recipe,omitempty"`
	Input   string `json:"input,omitempty"`

	In    int64 `json:"in,omitempty"`
	Out   int64 `json:"out,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	DurNS int64 `json:"dur_ns,omitempty"`

	Phase    int  `json:"phase,omitempty"`
	Shard    int  `json:"shard,omitempty"`
	PlanIdx  int  `json:"plan_idx,omitempty"`
	CacheHit bool `json:"cache_hit,omitempty"`

	// Worker is the 1-based djworker ID an event belongs to (0 = the
	// coordinator itself): the lane key of the distributed timeline.
	// op_complete events for remotely executed ops carry it too.
	Worker int `json:"worker,omitempty"`
	// Addr is the worker's listen address (worker_start).
	Addr string `json:"addr,omitempty"`

	// Wire-transport accounting (worker_wire, schema v3): bytes put on
	// the wire to/from the worker and the stages answered with a
	// keep-mask delta.
	BytesSent   int64 `json:"bytes_sent,omitempty"`
	BytesRecv   int64 `json:"bytes_recv,omitempty"`
	DeltaStages int   `json:"delta_stages,omitempty"`

	// SpillRuns counts the spill files (sorted runs / LSH partitions) a
	// dedup index wrote; Bytes carries the spilled bytes (spill events).
	SpillRuns int64 `json:"spill_runs,omitempty"`

	// Partitioned-index contention (index events, schema v4): the
	// signature index's partition count and how many shard claims
	// blocked on in-order resolution (their summed wait is DurNS).
	Partitions int   `json:"partitions,omitempty"`
	Waits      int64 `json:"waits,omitempty"`

	Workers int    `json:"workers,omitempty"`
	Why     string `json:"why,omitempty"`
	// Path is the file a persist_corrupt event discarded.
	Path string `json:"path,omitempty"`

	Status string `json:"status,omitempty"` // run_end: ok | error
	Error  string `json:"error,omitempty"`
	Note   string `json:"note,omitempty"`

	Schema  int        `json:"schema,omitempty"` // run_start only
	Ops     []PlanOp   `json:"ops,omitempty"`    // plan only
	Passes  []PlanPass `json:"passes,omitempty"` // plan only
	Shards  int        `json:"shards,omitempty"` // run_end (stream)
	Resumed int        `json:"resumed,omitempty"`
	PlanOps int        `json:"plan_ops,omitempty"`

	Attrs map[string]any `json:"attrs,omitempty"` // trace example payloads
}

// Journal is an append-only JSONL event writer. Writes are serialized
// and flushed per event so `tail -f` and crash-truncated reads see
// complete lines. The zero value and a nil *Journal are safe no-ops.
type Journal struct {
	mu   sync.Mutex
	w    *bufio.Writer
	file *os.File
	path string
	err  error
}

// NewJournal creates <dir>/<runID>.jsonl (mkdir -p included).
func NewJournal(dir, runID string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, runID+".jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{w: bufio.NewWriterSize(f, 16<<10), file: f, path: path}, nil
}

// JournalTo wraps an arbitrary writer (tests, in-memory buffers).
func JournalTo(w io.Writer) *Journal {
	return &Journal{w: bufio.NewWriterSize(w, 16<<10)}
}

// Path returns the backing file path ("" for non-file journals).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Write appends one event as a JSON line and flushes. The first write
// error is sticky and returned by Close.
func (j *Journal) Write(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil || j.err != nil {
		return
	}
	raw, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	raw = append(raw, '\n')
	if _, err := j.w.Write(raw); err != nil {
		j.err = err
		return
	}
	j.err = j.w.Flush()
}

// Close flushes and closes the journal, returning the first error seen.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w != nil {
		if err := j.w.Flush(); err != nil && j.err == nil {
			j.err = err
		}
		j.w = nil
	}
	if j.file != nil {
		if err := j.file.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.file = nil
	}
	return j.err
}

// ReadJournal decodes and validates a journal file: every line must be
// a well-formed Event with no unknown fields and the per-type required
// fields present. It doubles as the schema validator used in CI.
// Truncated trailing output (no run_end) is not an error — crashes and
// live tails produce exactly that — but structural violations are.
func ReadJournal(path string) ([]Event, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeJournal(raw)
}

// DecodeJournal validates raw JSONL journal bytes. See ReadJournal.
func DecodeJournal(raw []byte) ([]Event, error) {
	var events []Event
	lineNo := 0
	for len(raw) > 0 {
		lineNo++
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
		} else {
			raw = nil
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", lineNo, err)
		}
		if err := validateEvent(lineNo, len(events), e); err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return events, nil
}

func validateEvent(lineNo, idx int, e Event) error {
	fail := func(msg string) error {
		return fmt.Errorf("journal line %d (%s): %s", lineNo, e.Type, msg)
	}
	if e.TS == 0 {
		return fail("missing ts")
	}
	if e.RunID == "" {
		return fail("missing run_id")
	}
	switch e.Type {
	case EvRunStart:
		if idx != 0 {
			return fail("run_start not first event")
		}
		if e.Schema == 0 {
			return fail("missing schema")
		}
		if e.Schema > SchemaVersion {
			return fail(fmt.Sprintf("schema %d newer than supported %d", e.Schema, SchemaVersion))
		}
		if e.Backend == "" {
			return fail("missing backend")
		}
	case EvPlan:
		if len(e.Ops) == 0 {
			return fail("plan with no ops")
		}
		for i, op := range e.Ops {
			if op.Name == "" {
				return fail(fmt.Sprintf("ops[%d] missing name", i))
			}
		}
	case EvPhase, EvSpanStart:
		if e.Span == 0 {
			return fail("missing span")
		}
		if e.Name == "" {
			return fail("missing name")
		}
	case EvSpanEnd:
		if e.Span == 0 {
			return fail("missing span")
		}
	case EvOpComplete:
		if e.Name == "" {
			return fail("missing name")
		}
		if e.In < 0 || e.Out < 0 {
			return fail("negative counts")
		}
	case EvCacheHit:
		if e.Name == "" {
			return fail("missing name")
		}
	case EvSpill:
		if e.Name == "" {
			return fail("missing name")
		}
		if e.SpillRuns <= 0 && e.Bytes <= 0 {
			return fail("spill with no runs or bytes")
		}
	case EvTrace:
		if e.Name == "" {
			return fail("missing name")
		}
	case EvIndex:
		if e.Name == "" {
			return fail("missing name")
		}
		if e.Partitions <= 0 {
			return fail("index with no partitions")
		}
		if e.Waits < 0 || e.DurNS < 0 {
			return fail("negative contention counts")
		}
	case EvPersistCorrupt:
		if e.Kind == "" || e.Path == "" || e.Why == "" {
			return fail("missing kind, path or why")
		}
	case EvWorkerStart:
		if e.Worker <= 0 {
			return fail("missing worker")
		}
		if e.Addr == "" {
			return fail("missing addr")
		}
	case EvWorkerRetry:
		if e.Worker <= 0 {
			return fail("missing worker")
		}
		if e.Why == "" {
			return fail("missing why")
		}
	case EvShardSteal:
		if e.Worker <= 0 {
			return fail("missing worker")
		}
	case EvWorkerWire:
		if e.Worker <= 0 {
			return fail("missing worker")
		}
		if e.BytesSent < 0 || e.BytesRecv < 0 {
			return fail("negative byte counts")
		}
	case EvExport:
		if e.Input == "" && e.Note == "" {
			return fail("missing target")
		}
	case EvRunEnd:
		if e.Status == "" {
			return fail("missing status")
		}
	case "":
		return fail("missing type")
	default:
		return fail("unknown event type")
	}
	return nil
}
