package cache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io/fs"
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
// unchanged prefix — the cache mechanism of Sec. 4.1.1.
type Store struct {
	dir   string
	codec Codec
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
	enc, err := s.codec.Encode(buf.Bytes())
	if err != nil {
		return err
	}
	return writeFileAtomic(s.path(key), enc, false)
}

// writeFileAtomic writes data to a uniquely named temp file beside path
// and renames it over path, so concurrent writers of one path (two
// in-flight shards with identical content, two processes sharing a work
// dir) never share a temp file and readers never see a partial file.
// The temp file is removed on any error. With durable set, the temp
// file is fsynced before the rename and the directory after it, so the
// file is on disk under its name before the next write that depends on
// it starts.
func writeFileAtomic(path string, data []byte, durable bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
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
func (s *Store) Get(key string) (d *dataset.Dataset, ok bool, err error) {
	raw, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	dec, err := s.codec.Decode(raw)
	if err != nil {
		return nil, false, fmt.Errorf("cache: decode %s: %w", key, err)
	}
	ds, err := dataset.ReadJSONL(bytes.NewReader(dec))
	if err != nil {
		return nil, false, fmt.Errorf("cache: parse %s: %w", key, err)
	}
	return ds, true, nil
}

// Delete removes the entry for key if present.
func (s *Store) Delete(key string) error {
	err := os.Remove(s.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
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

// Checkpoint captures a recoverable pipeline state: which recipe was
// running, how many operators completed, and the dataset at that point.
type Checkpoint struct {
	// RecipeFingerprint identifies the recipe configuration; a checkpoint
	// from a different recipe must not be resumed.
	RecipeFingerprint string `json:"recipe_fingerprint"`
	// OpIndex is the number of operators already applied.
	OpIndex int `json:"op_index"`
	// DataFile is the dataset payload file, relative to the manager dir.
	DataFile string `json:"data_file"`
}

// CheckpointManager persists checkpoints with the cleanup discipline of
// Appendix A.2: the previous checkpoint is deleted only after the new one
// is fully written, so peak disk usage stays bounded (≈3S including the
// original dataset) while a valid recovery point always exists.
type CheckpointManager struct {
	dir   string
	codec Codec
}

// NewCheckpointManager opens (creating if needed) a checkpoint directory.
func NewCheckpointManager(dir, compression string) (*CheckpointManager, error) {
	codec, err := CodecByName(compression)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &CheckpointManager{dir: dir, codec: codec}, nil
}

func (m *CheckpointManager) manifestPath() string {
	return filepath.Join(m.dir, "checkpoint.json")
}

// Save writes a checkpoint after opIndex operators, replacing any previous
// checkpoint only once the new payload is durable: payload and manifest
// are each written to a temp file, fsynced and renamed into place, so a
// crash leaves either the old checkpoint or the new one, never a live
// manifest naming a partial payload.
func (m *CheckpointManager) Save(recipeFP string, opIndex int, d *dataset.Dataset) error {
	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		return err
	}
	enc, err := m.codec.Encode(buf.Bytes())
	if err != nil {
		return err
	}
	dataFile := fmt.Sprintf("state-%03d.%s", opIndex, m.codec.Name())
	if err := writeFileAtomic(filepath.Join(m.dir, dataFile), enc, true); err != nil {
		return err
	}
	prev, _ := m.load()
	manifest, err := json.Marshal(Checkpoint{
		RecipeFingerprint: recipeFP,
		OpIndex:           opIndex,
		DataFile:          dataFile,
	})
	if err != nil {
		return err
	}
	if err := writeFileAtomic(m.manifestPath(), manifest, true); err != nil {
		return err
	}
	// Only now is it safe to drop the previous state file.
	if prev != nil && prev.DataFile != dataFile {
		os.Remove(filepath.Join(m.dir, prev.DataFile))
	}
	return nil
}

func (m *CheckpointManager) load() (*Checkpoint, error) {
	raw, err := os.ReadFile(m.manifestPath())
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// Resume returns the latest checkpoint for the given recipe fingerprint,
// or ok=false when none is applicable.
func (m *CheckpointManager) Resume(recipeFP string) (opIndex int, d *dataset.Dataset, ok bool, err error) {
	cp, err := m.load()
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, false, nil
		}
		return 0, nil, false, err
	}
	if cp.RecipeFingerprint != recipeFP {
		return 0, nil, false, nil
	}
	raw, err := os.ReadFile(filepath.Join(m.dir, cp.DataFile))
	if err != nil {
		return 0, nil, false, fmt.Errorf("cache: checkpoint payload: %w", err)
	}
	dec, err := m.codec.Decode(raw)
	if err != nil {
		return 0, nil, false, fmt.Errorf("cache: checkpoint decode: %w", err)
	}
	ds, err := dataset.ReadJSONL(bytes.NewReader(dec))
	if err != nil {
		return 0, nil, false, fmt.Errorf("cache: checkpoint parse: %w", err)
	}
	return cp.OpIndex, ds, true, nil
}

// Clear removes all checkpoint state (called after a successful run).
func (m *CheckpointManager) Clear() error {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		os.Remove(filepath.Join(m.dir, e.Name()))
	}
	return nil
}
