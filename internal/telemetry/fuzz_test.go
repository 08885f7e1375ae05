package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// encodeEvents renders events back into journal JSONL, one per line.
func encodeEvents(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("re-encoding an accepted event: %v", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// FuzzReadJournal throws arbitrary bytes at the strict journal reader
// (ReadJournal is os.ReadFile plus DecodeJournal). Decoding must never
// panic, and whatever it accepts must be a valid journal: every event
// re-validates at its position, and re-encoding the events yields a
// journal the reader accepts again, reaching a fixed point after one
// round.
func FuzzReadJournal(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		if len(line) > 0 {
			f.Add(line)
		}
	}
	// A worker_wire line from before frame compression was removed: the
	// raw_bytes_sent field is unknown now and must be rejected.
	f.Add(append(append([]byte(nil), golden...),
		`{"ts":1800,"type":"worker_wire","run_id":"r1","worker":1,"bytes_sent":10,"raw_bytes_sent":30}`+"\n"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeJournal(data)
		if err != nil {
			return
		}
		for i, e := range events {
			if err := validateEvent(i+1, i, e); err != nil {
				t.Fatalf("accepted event %d fails validation: %v", i, err)
			}
		}
		once := encodeEvents(t, events)
		again, err := DecodeJournal(once)
		if err != nil {
			t.Fatalf("re-encoded journal rejected: %v\n%s", err, once)
		}
		if len(again) != len(events) {
			t.Fatalf("re-encoded journal has %d events, want %d", len(again), len(events))
		}
		if twice := encodeEvents(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", once, twice)
		}
	})
}
