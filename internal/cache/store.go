package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/ops"
)

// Store is the per-operator dataset cache: after each OP the executor can
// persist the current dataset keyed by (input fingerprint, op name, op
// params), so re-running a recipe with a modified tail reuses every
// unchanged prefix — the cache mechanism of Sec. 4.1.1. Checkpoints are
// entries of a durable Store (see SetDurable).
//
// Every entry is a fixed header followed by the codec-encoded JSONL
// body. The header records a magic number, the sample count, the body
// length and a CRC-32C of the body, so Count reads a state's size
// without decoding it and Get verifies every byte it loads.
type Store struct {
	dir     string
	codec   Codec
	durable bool
}

// Entry header layout: magic, sample count, body length, body CRC-32C.
const (
	entryMagic      = "DJC1"
	entryHeaderSize = 4 + 8 + 8 + 4
)

var crc32c = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports an entry that failed verification on load. Get
// has already deleted the entry, so callers treat it as a miss.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("cache: corrupt entry %s: %s", e.Path, e.Reason)
}

// NewStore opens (creating if needed) a cache directory with the given
// compression codec.
func NewStore(dir, compression string) (*Store, error) {
	codec, err := CodecByName(compression)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, codec: codec}, nil
}

// SetDurable makes every later Put fsync the entry before renaming it
// into place and the directory after, so an entry is on disk under its
// name before the next write that depends on it starts (checkpoints).
func (s *Store) SetDurable(on bool) { s.durable = on }

// Key derives the cache key for applying an operator (with params) to a
// dataset state identified by inputFingerprint.
func Key(inputFingerprint, opName string, params ops.Params) string {
	h := fnv.New64a()
	fmt.Fprint(h, inputFingerprint, "\x00", opName, "\x00")
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\x00", k, params[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".cache."+s.codec.Name())
}

// putBufPool recycles the serialization buffers of Put (cache and
// checkpoint writes happen after every op of a cached run).
var putBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Put stores the dataset under key.
func (s *Store) Put(key string, d *dataset.Dataset) error {
	buf := putBufPool.Get().(*bytes.Buffer)
	defer putBufPool.Put(buf)
	buf.Reset()
	if err := d.WriteJSONL(buf); err != nil {
		return err
	}
	body, err := s.codec.Encode(buf.Bytes())
	if err != nil {
		return err
	}
	return writeFileAtomic(s.path(key), s.durable, entryHeader(d.Len(), body), body)
}

// entryHeader builds the fixed header of an entry holding count samples
// in body.
func entryHeader(count int, body []byte) []byte {
	h := make([]byte, entryHeaderSize)
	copy(h, entryMagic)
	binary.LittleEndian.PutUint64(h[4:], uint64(count))
	binary.LittleEndian.PutUint64(h[12:], uint64(len(body)))
	binary.LittleEndian.PutUint32(h[20:], crc32.Checksum(body, crc32c))
	return h
}

// decodeEntry verifies a whole entry — header, body length, checksum,
// codec, JSONL and sample count — and returns its dataset, or the
// reason it is corrupt.
func decodeEntry(codec Codec, raw []byte) (*dataset.Dataset, error) {
	if len(raw) < entryHeaderSize || string(raw[:4]) != entryMagic {
		return nil, fmt.Errorf("bad header")
	}
	count := binary.LittleEndian.Uint64(raw[4:])
	body := raw[entryHeaderSize:]
	if n := binary.LittleEndian.Uint64(raw[12:]); n != uint64(len(body)) {
		return nil, fmt.Errorf("body is %d bytes, header says %d", len(body), n)
	}
	if binary.LittleEndian.Uint32(raw[20:]) != crc32.Checksum(body, crc32c) {
		return nil, fmt.Errorf("body checksum mismatch")
	}
	dec, err := codec.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	ds, err := dataset.ReadJSONL(bytes.NewReader(dec))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if uint64(ds.Len()) != count {
		return nil, fmt.Errorf("%d samples, header says %d", ds.Len(), count)
	}
	return ds, nil
}

// writeFileAtomic writes parts to a uniquely named temp file beside path
// and renames it over path, so concurrent writers of one path (two
// in-flight shards with identical content, two processes sharing a work
// dir) never share a temp file and readers never see a partial file.
// The temp file is removed on any error. With durable set, the temp
// file is fsynced before the rename and the directory after it.
func writeFileAtomic(path string, durable bool, parts ...[]byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	for _, p := range parts {
		if err == nil {
			_, err = tmp.Write(p)
		}
	}
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil && durable {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if !durable {
		return nil
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get loads the dataset stored under key; ok is false on a cache miss.
// An entry that fails verification is deleted and reported as a
// *CorruptError, which callers treat as a miss.
func (s *Store) Get(key string) (d *dataset.Dataset, ok bool, err error) {
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	ds, err := decodeEntry(s.codec, raw)
	if err != nil {
		os.Remove(path)
		return nil, false, &CorruptError{Path: path, Reason: err.Error()}
	}
	return ds, true, nil
}

// Count returns the sample count recorded in the header of key's entry,
// reading nothing else; ok is false when the entry is missing or its
// header is unreadable. The body is not verified.
func (s *Store) Count(key string) (n int, ok bool) {
	f, err := os.Open(s.path(key))
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var h [entryHeaderSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil || string(h[:4]) != entryMagic {
		return 0, false
	}
	c := binary.LittleEndian.Uint64(h[4:])
	if c > math.MaxInt32 {
		return 0, false
	}
	return int(c), true
}

// Delete removes the entry for key if present.
func (s *Store) Delete(key string) error {
	err := os.Remove(s.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Clear removes every file in the store's directory: a checkpoint
// store's entries after a successful run, and anything an older layout
// left there.
func (s *Store) Clear() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		os.Remove(filepath.Join(s.dir, e.Name()))
	}
	return nil
}

// Keys lists the stored cache keys.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	suffix := ".cache." + s.codec.Name()
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if n := len(name) - len(suffix); n > 0 && name[n:] == suffix {
			keys = append(keys, name[:n])
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// SizeOnDisk returns the total bytes used by cache entries, walking
// subdirectories too so intermediate spill runs living under the cache
// directory (see SpillDir) count against cache disk usage.
func (s *Store) SizeOnDisk() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // spill files vanish concurrently; skip, don't fail
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// SpillDir returns where dedup ops write intermediate spill runs: under
// the cache directory when the cache is enabled (so SizeOnDisk accounts
// them), else a sibling spill directory under the work dir. Nothing is
// created; spill structures mkdir on first use.
func SpillDir(workDir string, useCache bool) string {
	if useCache {
		return filepath.Join(workDir, "cache", "spill")
	}
	return filepath.Join(workDir, "spill")
}
