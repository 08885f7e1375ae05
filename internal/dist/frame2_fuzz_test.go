package dist

import (
	"bytes"
	"testing"

	"repro/internal/sample"
)

// FuzzFrame2Decode throws arbitrary bytes at the frame decoder. The
// invariant under test is the retry contract: a truncated or corrupt
// frame must surface as an error — never a panic, hang, or unbounded
// allocation — so the scheduler can re-dispatch the shard elsewhere.
func FuzzFrame2Decode(f *testing.F) {
	seed := func(b []byte) { f.Add(b) }

	var buf bytes.Buffer
	if _, err := WriteFrame2(&buf, RunHeader{RunID: "f", Shard: 1}, richDataset()); err != nil {
		f.Fatal(err)
	}
	seed(append([]byte(nil), buf.Bytes()...))

	// The same frame with the reserved flag bit 0 set: decode must
	// reject it.
	flagged := append([]byte(nil), buf.Bytes()...)
	flagged[bytes.IndexByte(flagged, '\n')+1+5] |= 1
	seed(flagged)

	in := make([]*sample.Sample, 12)
	for i := range in {
		in[i] = sample.New("fuzz seed text")
		in[i].SetStat("score", float64(i))
	}
	mask, _ := BuildKeepMask(in, in[:7])
	buf.Reset()
	if _, err := WriteDeltaFrame2(&buf, ResultHeader{Delta: true, Samples: 7}, mask, len(in), in[:7]); err != nil {
		f.Fatal(err)
	}
	seed(append([]byte(nil), buf.Bytes()...))

	seed([]byte("{}\nDJF2"))
	seed([]byte("not json at all"))
	seed([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrame2Reader(bytes.NewReader(data))
		var h RunHeader
		if err := fr.Header(&h); err != nil {
			return
		}
		frame, err := fr.Body()
		if err != nil {
			return
		}
		// A frame that decodes must be internally consistent.
		if frame.Delta {
			if len(frame.Mask) != (frame.InCount+7)/8 {
				t.Fatalf("mask %d bytes for %d inputs", len(frame.Mask), frame.InCount)
			}
			if frame.Data.Len() > frame.InCount {
				t.Fatalf("delta keeps %d of %d inputs", frame.Data.Len(), frame.InCount)
			}
		}
		if frame.Wire <= 0 {
			t.Fatalf("nonpositive accounting: wire=%d", frame.Wire)
		}
	})
}
