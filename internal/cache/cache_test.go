package cache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
)

var codecNames = []string{"none", "gzip", "flate", "lzj"}

func TestCodecRoundTrips(t *testing.T) {
	payloads := [][]byte{
		nil,
		[]byte(""),
		[]byte("short"),
		[]byte(strings.Repeat("compressible text block ", 500)),
		bytes.Repeat([]byte{0}, 10000),
		[]byte("日本語テキスト with mixed content 123"),
	}
	for _, name := range codecNames {
		codec, err := CodecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range payloads {
			enc, err := codec.Encode(p)
			if err != nil {
				t.Fatalf("%s encode payload %d: %v", name, i, err)
			}
			dec, err := codec.Decode(enc)
			if err != nil {
				t.Fatalf("%s decode payload %d: %v", name, i, err)
			}
			if !bytes.Equal(dec, p) {
				t.Fatalf("%s payload %d corrupted: got %d bytes want %d", name, i, len(dec), len(p))
			}
		}
	}
}

func TestCodecUnknown(t *testing.T) {
	if _, err := CodecByName("zstd-pro"); err == nil {
		t.Fatal("unknown codec must error")
	}
	if c, err := CodecByName(""); err != nil || c.Name() != "none" {
		t.Fatalf("empty codec = %v, %v", c, err)
	}
}

func TestLZJCompressesRepetitiveData(t *testing.T) {
	codec, _ := CodecByName("lzj")
	data := []byte(strings.Repeat("the same sentence appears many times in this corpus. ", 200))
	enc, err := codec.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(data)/4 {
		t.Fatalf("lzj ratio too poor on repetitive data: %d -> %d", len(data), len(enc))
	}
}

func TestLZJRejectsCorruptInput(t *testing.T) {
	codec, _ := CodecByName("lzj")
	cases := [][]byte{
		{},
		[]byte("x"),
		[]byte("12345678"), // bad magic
		{0x31, 0x4a, 0x5a, 0x4c, 9, 9, 9, 9, 0xff}, // magic ok-ish but garbage body
		// A literal length past int range must not wrap into a negative
		// slice bound.
		{0x31, 0x4a, 0x5a, 0x4c, 4, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		// A declared length no body of this size can encode is refused
		// before anything is allocated for it.
		{0x31, 0x4a, 0x5a, 0x4c, 0xff, 0xff, 0xff, 0x7f, 0x00},
	}
	for i, c := range cases {
		if _, err := codec.Decode(c); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

// Property: lzj round-trips arbitrary byte strings.
func TestPropertyLZJRoundTrip(t *testing.T) {
	codec, _ := CodecByName("lzj")
	f := func(data []byte) bool {
		enc, err := codec.Encode(data)
		if err != nil {
			return false
		}
		dec, err := codec.Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: lzj round-trips highly repetitive inputs (overlapping matches).
func TestPropertyLZJOverlap(t *testing.T) {
	codec, _ := CodecByName("lzj")
	f := func(unit []byte, rep uint8) bool {
		if len(unit) == 0 {
			unit = []byte{'a'}
		}
		data := bytes.Repeat(unit, int(rep%50)+2)
		enc, err := codec.Encode(data)
		if err != nil {
			return false
		}
		dec, err := codec.Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sampleDataset(n int) *dataset.Dataset {
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf("cached sample number %d with some shared prefix text", i)
	}
	return dataset.FromTexts(texts)
}

func TestStorePutGet(t *testing.T) {
	for _, codec := range codecNames {
		t.Run(codec, func(t *testing.T) {
			store, err := NewStore(t.TempDir(), codec)
			if err != nil {
				t.Fatal(err)
			}
			d := sampleDataset(50)
			key := Key(d.Fingerprint(), "word_num_filter", ops.Params{"min_num": 5})
			if _, ok, _ := store.Get(key); ok {
				t.Fatal("unexpected cache hit")
			}
			if err := store.Put(key, d); err != nil {
				t.Fatal(err)
			}
			got, ok, err := store.Get(key)
			if err != nil || !ok {
				t.Fatalf("Get = %v, %v", ok, err)
			}
			if got.Fingerprint() != d.Fingerprint() {
				t.Fatal("cache round trip corrupted dataset")
			}
		})
	}
}

func TestStoreKeysAndDelete(t *testing.T) {
	store, _ := NewStore(t.TempDir(), "gzip")
	d := sampleDataset(3)
	store.Put("aaa", d)
	store.Put("bbb", d)
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "aaa" {
		t.Fatalf("keys = %v", keys)
	}
	if err := store.Delete("aaa"); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete("aaa"); err != nil {
		t.Fatal("double delete must be nil")
	}
	keys, _ = store.Keys()
	if len(keys) != 1 {
		t.Fatalf("keys after delete = %v", keys)
	}
	if size, err := store.SizeOnDisk(); err != nil || size <= 0 {
		t.Fatalf("SizeOnDisk = %d, %v", size, err)
	}
}

// TestStoreConcurrentPutSameKey races many writers on one key, as two
// in-flight shards with identical content (or two processes sharing a
// work dir) do: every Put must succeed, Get must return the dataset,
// and no temp file may be left behind.
func TestStoreConcurrentPutSameKey(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir, "lzj")
	if err != nil {
		t.Fatal(err)
	}
	d := sampleDataset(40)
	const writers, rounds = 8, 50
	errs := make(chan error, writers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := store.Put("samekey", d); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if failed == 0 {
			t.Errorf("concurrent Put failed: %v", err)
		}
		failed++
	}
	if failed > 0 {
		t.Fatalf("%d of %d concurrent Puts failed", failed, writers*rounds)
	}
	got, ok, err := store.Get("samekey")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if got.Fingerprint() != d.Fingerprint() {
		t.Fatal("concurrent Puts corrupted the entry")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("cache dir holds %v, want the one entry", names)
	}
}

func TestKeyDistinguishesParams(t *testing.T) {
	fp := "abc"
	k1 := Key(fp, "op", ops.Params{"a": 1})
	k2 := Key(fp, "op", ops.Params{"a": 2})
	k3 := Key(fp, "op2", ops.Params{"a": 1})
	k4 := Key("other", "op", ops.Params{"a": 1})
	if k1 == k2 || k1 == k3 || k1 == k4 {
		t.Fatalf("keys collide: %s %s %s %s", k1, k2, k3, k4)
	}
	// Param order must not matter.
	ka := Key(fp, "op", ops.Params{"a": 1, "b": 2})
	kb := Key(fp, "op", ops.Params{"b": 2, "a": 1})
	if ka != kb {
		t.Fatal("param order changed the key")
	}
}

// TestCheckpointSaveResume: a checkpoint is an entry of a durable
// store. It round-trips through Put and Get like any entry, Count reads
// its sample count from the header alone, and no temp file is left.
func TestCheckpointSaveResume(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir, "lzj")
	if err != nil {
		t.Fatal(err)
	}
	store.SetDurable(true)
	if _, ok := store.Count("state"); ok {
		t.Fatal("Count found a missing entry")
	}
	d := sampleDataset(20)
	if err := store.Put("state", d); err != nil {
		t.Fatal(err)
	}
	if n, ok := store.Count("state"); !ok || n != 20 {
		t.Fatalf("Count = %d, %v; want 20", n, ok)
	}
	got, ok, err := store.Get("state")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if got.Fingerprint() != d.Fingerprint() {
		t.Fatal("durable round trip corrupted the dataset")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("durable Put left %d files, want 1", len(entries))
	}
}

func TestCheckpointClear(t *testing.T) {
	dir := t.TempDir()
	store, _ := NewStore(dir, "none")
	store.Put("r", sampleDataset(2))
	// A manifest of the older checkpoint layout goes too.
	os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte("{}"), 0o644)
	if err := store.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := store.Get("r"); ok {
		t.Fatal("entry survived Clear")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("files left after clear: %d", len(entries))
	}
}

// TestStoreGetRejectsCorruptEntry: every way an entry can be damaged —
// truncation, appended bytes, a flipped body bit, a header whose count
// disagrees with the body, a foreign file — makes Get report a
// *CorruptError and delete the entry, so the next Get is a plain miss.
func TestStoreGetRejectsCorruptEntry(t *testing.T) {
	d := sampleDataset(30)
	damage := map[string]func(raw []byte) []byte{
		"truncated header": func(raw []byte) []byte { return raw[:10] },
		"truncated body":   func(raw []byte) []byte { return raw[:len(raw)-7] },
		"garbage appended": func(raw []byte) []byte { return append(raw, "garbage{"...) },
		"body bit flipped": func(raw []byte) []byte { raw[len(raw)-3] ^= 0x10; return raw },
		"count mismatch": func(raw []byte) []byte {
			raw[4]++ // the count field; body, length and checksum stay valid
			return raw
		},
		"bad magic":    func(raw []byte) []byte { raw[0] = 'X'; return raw },
		"older layout": func(raw []byte) []byte { return raw[entryHeaderSize:] },
	}
	for _, codec := range codecNames {
		for name, f := range damage {
			t.Run(codec+"/"+name, func(t *testing.T) {
				store, _ := NewStore(t.TempDir(), codec)
				if err := store.Put("k", d); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(store.path("k"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(store.path("k"), f(raw), 0o644); err != nil {
					t.Fatal(err)
				}
				_, ok, err := store.Get("k")
				var ce *CorruptError
				if ok || !errors.As(err, &ce) || ce.Path != store.path("k") || ce.Reason == "" {
					t.Fatalf("Get = ok %v, err %v; want a CorruptError", ok, err)
				}
				if _, err := os.Stat(store.path("k")); !os.IsNotExist(err) {
					t.Fatalf("corrupt entry not deleted: %v", err)
				}
				if _, ok, err := store.Get("k"); ok || err != nil {
					t.Fatalf("Get after deletion = %v, %v; want a plain miss", ok, err)
				}
			})
		}
	}
}

func TestSpaceAnalysis(t *testing.T) {
	r, err := config.ParseRecipe(`
process:
  - whitespace_normalization_mapper:
  - fix_unicode_mapper:
  - word_num_filter:
  - stopwords_filter:
  - flagged_words_filter:
  - document_deduplicator:
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeSpace(r)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mappers != 2 || a.Filters != 3 || a.Deduplicators != 1 {
		t.Fatalf("census = %+v", a)
	}
	// 1 + M + F + 1{F>0} + D = 1 + 2 + 3 + 1 + 1 = 8.
	if a.CacheModeMultiple != 8 {
		t.Fatalf("cache multiple = %d", a.CacheModeMultiple)
	}
	if a.CheckpointModeMultiple != 3 {
		t.Fatalf("checkpoint multiple = %d", a.CheckpointModeMultiple)
	}
	out := a.Render(1000)
	if !strings.Contains(out, "8 x S = 8000") || !strings.Contains(out, "3 x S = 3000") {
		t.Fatalf("render = %q", out)
	}

	// Mapper-only recipe: no stats column, no 1{F>0} term.
	r2, _ := config.ParseRecipe("process:\n  - lowercase_mapper:\n")
	a2, _ := AnalyzeSpace(r2)
	if a2.CacheModeMultiple != 2 {
		t.Fatalf("mapper-only multiple = %d", a2.CacheModeMultiple)
	}

	r3 := config.Default()
	r3.Process = []config.OpSpec{{Name: "ghost"}}
	if _, err := AnalyzeSpace(r3); err == nil {
		t.Fatal("unknown op accepted")
	}
}
