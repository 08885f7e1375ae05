package cache

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// FuzzCacheEntry feeds arbitrary bytes to every decoder a cache load
// runs, under each codec: the codec itself, the whole-entry decoder, and
// the entry decoder behind a valid header (so the codec and JSONL layers
// see the bytes, not only the checksum). None may panic. The bytes then
// become a dataset (one sample per line) whose Put then Get must
// round-trip exactly. JSONL carries text as UTF-8, so invalid bytes are
// replaced by U+FFFD first: an entry cannot hold what JSONL cannot.
func FuzzCacheEntry(f *testing.F) {
	d := sampleDataset(3)
	for _, name := range codecNames {
		codec, _ := CodecByName(name)
		var buf bytes.Buffer
		d.WriteJSONL(&buf)
		body, _ := codec.Encode(buf.Bytes())
		entry := append(entryHeader(d.Len(), body), body...)
		f.Add(entry)
		f.Add(body)
		f.Add(entry[:len(entry)/2])
	}
	f.Add([]byte("plain text\nsecond line\n"))
	f.Add([]byte{})
	f.Add([]byte("LZJ1\xff\xff\xff\x7f\x00\xfc\xff\xff\xff\x0f\x01\x00"))

	dir := f.TempDir()
	stores := make([]*Store, len(codecNames))
	for i, name := range codecNames {
		s, err := NewStore(filepath.Join(dir, name), name)
		if err != nil {
			f.Fatal(err)
		}
		stores[i] = s
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		texts := strings.Split(strings.ToValidUTF8(string(raw), "\uFFFD"), "\n")
		in := dataset.FromTexts(texts)
		var want bytes.Buffer
		if err := in.WriteJSONL(&want); err != nil {
			t.Fatal(err)
		}
		for _, s := range stores {
			if dec, err := s.codec.Decode(raw); err == nil && s.codec.Name() != "none" {
				// Whatever decodes must re-encode and decode to itself.
				enc, err := s.codec.Encode(dec)
				if err != nil {
					t.Fatalf("%s: re-encode: %v", s.codec.Name(), err)
				}
				if again, err := s.codec.Decode(enc); err != nil || !bytes.Equal(again, dec) {
					t.Fatalf("%s: re-encoded payload does not round-trip: %v", s.codec.Name(), err)
				}
			}
			_, _ = decodeEntry(s.codec, raw)
			_, _ = decodeEntry(s.codec, append(entryHeader(0, raw), raw...))

			if err := s.Put("k", in); err != nil {
				t.Fatalf("%s: Put: %v", s.codec.Name(), err)
			}
			out, ok, err := s.Get("k")
			if err != nil || !ok {
				t.Fatalf("%s: Get = %v, %v", s.codec.Name(), ok, err)
			}
			var got bytes.Buffer
			if err := out.WriteJSONL(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: Put then Get changed the dataset:\n%q\nwant\n%q",
					s.codec.Name(), got.Bytes(), want.Bytes())
			}
		}
	})
}
