package dist

import (
	"testing"
	"time"
)

func testScheduler(n int) *Scheduler {
	clients := make([]*WorkerClient, n)
	for i := range clients {
		clients[i] = NewWorkerClient(i+1, "127.0.0.1:0", time.Second)
	}
	return NewScheduler(clients)
}

// TestSchedulerHomeAffinity: an idle fleet routes every shard to its
// home worker (shard mod N) with no steals.
func TestSchedulerHomeAffinity(t *testing.T) {
	s := testScheduler(3)
	for shard := 0; shard < 6; shard++ {
		d := s.Pick(shard)
		if d.Worker == nil || d.Stolen {
			t.Fatalf("shard %d: %+v, want home route", shard, d)
		}
		if want := shard%3 + 1; d.Worker.ID != want {
			t.Errorf("shard %d routed to worker %d, want %d", shard, d.Worker.ID, want)
		}
		s.Done(d.Worker)
	}
	st := s.Stats()
	if st.Steals != 0 || st.Retries != 0 || st.Fallbacks != 0 {
		t.Errorf("idle fleet produced failures: %+v", st)
	}
	if st.Workers[0].Stages != 2 || st.Workers[2].Stages != 2 {
		t.Errorf("stage tallies wrong: %+v", st.Workers)
	}
}

// TestSchedulerStealsFromBusyHome: once the home worker holds
// stealThreshold stages in flight, new shards go to an idler worker and
// are counted as steals.
func TestSchedulerStealsFromBusyHome(t *testing.T) {
	s := testScheduler(2)
	var held []*WorkerClient
	for i := 0; i < stealThreshold; i++ {
		d := s.Pick(0) // home = worker 1
		if d.Worker.ID != 1 || d.Stolen {
			t.Fatalf("warm-up pick %d: %+v", i, d)
		}
		held = append(held, d.Worker)
	}
	d := s.Pick(0)
	if d.Worker == nil || d.Worker.ID != 2 || !d.Stolen || d.Why != "home worker busy" {
		t.Fatalf("overloaded home not stolen from: %+v", d)
	}
	st := s.Stats()
	if st.Steals != 1 || st.Workers[1].Steals != 1 {
		t.Errorf("steal not tallied: %+v", st)
	}
	for _, w := range held {
		s.Done(w)
	}
	s.Done(d.Worker)
	// Home drained: affinity resumes.
	if d := s.Pick(0); d.Worker.ID != 1 || d.Stolen {
		t.Errorf("drained home not reused: %+v", d)
	}
}

// TestSchedulerDeadWorkerRerouting: a failed worker is never picked
// again; its shards are stolen by survivors, and once the whole fleet
// is dead Pick degrades to the in-process fallback.
func TestSchedulerDeadWorkerRerouting(t *testing.T) {
	s := testScheduler(2)
	d := s.Pick(0)
	s.Fail(d.Worker) // worker 1 dies mid-stage
	if s.Alive() != 1 {
		t.Fatalf("alive = %d, want 1", s.Alive())
	}
	d = s.Pick(0) // home is dead
	if d.Worker == nil || d.Worker.ID != 2 || !d.Stolen || d.Why != "home worker dead" {
		t.Fatalf("dead home not stolen from: %+v", d)
	}
	s.Done(d.Worker)
	s.Fail(s.Clients()[1]) // worker 2 dies too
	d = s.Pick(1)
	if d.Worker != nil || d.Why != "all workers dead" {
		t.Fatalf("dead fleet did not fall back: %+v", d)
	}
	st := s.Stats()
	if st.Retries != 2 || st.Fallbacks != 1 || !st.Workers[0].Dead || !st.Workers[1].Dead {
		t.Errorf("failure tallies wrong: %+v", st)
	}
	if len(s.Live()) != 0 {
		t.Errorf("live list not empty: %v", s.Live())
	}
}
