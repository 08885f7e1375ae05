package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
)

// skewRecipe is a small shard-local recipe and its plan.
func skewRecipe(t *testing.T) (*config.Recipe, *plan.Plan) {
	t.Helper()
	r := config.Default()
	r.UseCache = false
	r.UseProfiles = false
	r.Journal = false
	r.WorkDir = t.TempDir()
	r.Process = []config.OpSpec{
		{Name: "text_length_filter", Params: ops.Params{"min_len": 5}},
		{Name: "word_num_filter", Params: ops.Params{"min_num": 2}},
	}
	pl, err := plan.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	return r, pl
}

// TestConfigureRejectsProtoSkew pins the protocol-skew contract: a
// worker accepts exactly its own protocol version and refuses any
// other, older or newer, with a proto error.
func TestConfigureRejectsProtoSkew(t *testing.T) {
	r, pl := skewRecipe(t)
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	w := &WorkerServer{ID: 1, WorkDir: t.TempDir()}
	req := dist.ConfigureRequest{
		Proto: dist.ProtoVersion, RunID: "skew", Recipe: raw, Fingerprint: PlanFingerprint(pl),
	}
	if resp := w.configure(req); !resp.OK {
		t.Fatalf("current protocol refused: %s", resp.Error)
	}
	for _, proto := range []int{1, dist.ProtoVersion + 1} {
		req.Proto = proto
		resp := w.configure(req)
		if resp.OK {
			t.Errorf("proto %d accepted by a worker speaking %d", proto, dist.ProtoVersion)
			continue
		}
		want := fmt.Sprintf("proto %d, worker speaks %d", proto, dist.ProtoVersion)
		if resp.Error != want {
			t.Errorf("proto %d refused with %q, want %q", proto, resp.Error, want)
		}
	}
}

// TestPoolConfigureFailsOnStaleWorker dials a fleet of one current
// worker and one stale worker that answers configure the way a binary
// from the previous protocol version does. The refusal must surface as
// a *dist.RejectError, which fails the run; the healthy worker must not
// quietly carry the run alone.
func TestPoolConfigureFailsOnStaleWorker(t *testing.T) {
	r, pl := skewRecipe(t)
	current := httptest.NewServer((&WorkerServer{ID: 1, WorkDir: t.TempDir()}).Handler())
	defer current.Close()
	stale := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/v1/healthz":
			rw.Write([]byte("ok\n"))
		case "/v1/configure":
			var creq dist.ConfigureRequest
			if err := json.NewDecoder(req.Body).Decode(&creq); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			resp := dist.ConfigureResponse{OK: creq.Proto == 1}
			if !resp.OK {
				resp.Error = fmt.Sprintf("proto %d, worker speaks 1", creq.Proto)
			}
			json.NewEncoder(rw).Encode(resp)
		default:
			http.NotFound(rw, req)
		}
	}))
	defer stale.Close()

	pool, err := NewPool(PoolOptions{Addrs: []string{
		strings.TrimPrefix(current.URL, "http://"),
		strings.TrimPrefix(stale.URL, "http://"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	err = pool.Configure(r, pl, "skew", nil)
	var rej *dist.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("configure against a stale worker returned %v, want a *dist.RejectError", err)
	}
	want := fmt.Sprintf("proto %d, worker speaks 1", dist.ProtoVersion)
	if rej.Worker != 2 || rej.Reason != want {
		t.Errorf("rejection from worker %d: %q, want worker 2: %q", rej.Worker, rej.Reason, want)
	}
}
