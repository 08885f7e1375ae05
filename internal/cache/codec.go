// Package cache implements the space-optimization layer of Sec. 6: the
// per-operator dataset store keyed by content fingerprints, the Appendix
// A.2 space model, and pluggable cache compression. One entry format
// serves both of the paper's space policies: the cache keeps every
// state, and checkpoint mode keeps only each op chain's newest state in
// a durable store (the engine's policy, internal/stream). Every entry
// carries its sample count and a body checksum, and every load verifies
// them. The stdlib provides gzip and flate; the "lzj" codec is a
// from-scratch LZ77 byte compressor standing in for the LZ4/zstd fast
// codecs the paper uses.
package cache

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Codec compresses and decompresses cache payloads.
type Codec interface {
	// Name is the codec identifier used in recipes ("gzip", "flate", "lzj",
	// "none").
	Name() string
	// Encode compresses src.
	Encode(src []byte) ([]byte, error)
	// Decode decompresses data produced by Encode.
	Decode(src []byte) ([]byte, error)
}

// CodecByName returns the codec for a recipe's cache_compression setting.
// The empty string and "none" mean no compression.
func CodecByName(name string) (Codec, error) {
	switch name {
	case "", "none":
		return noneCodec{}, nil
	case "gzip":
		return gzipCodec{}, nil
	case "flate":
		return flateCodec{}, nil
	case "lzj":
		return lzjCodec{}, nil
	}
	return nil, fmt.Errorf("cache: unknown codec %q", name)
}

type noneCodec struct{}

func (noneCodec) Name() string                      { return "none" }
func (noneCodec) Encode(src []byte) ([]byte, error) { return src, nil }
func (noneCodec) Decode(src []byte) ([]byte, error) { return src, nil }

type gzipCodec struct{}

func (gzipCodec) Name() string { return "gzip" }

// gzipWriterPool recycles gzip writers: each carries large internal
// deflate state that would otherwise be rebuilt per cache Put.
var gzipWriterPool = sync.Pool{New: func() any {
	w, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
	return w
}}

func (gzipCodec) Encode(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := gzipWriterPool.Get().(*gzip.Writer)
	w.Reset(&buf)
	if _, err := w.Write(src); err != nil {
		gzipWriterPool.Put(w)
		return nil, err
	}
	if err := w.Close(); err != nil {
		gzipWriterPool.Put(w)
		return nil, err
	}
	gzipWriterPool.Put(w)
	return buf.Bytes(), nil
}

func (gzipCodec) Decode(src []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

type flateCodec struct{}

func (flateCodec) Name() string { return "flate" }

// flateWriterPool recycles deflate writers across cache Puts.
var flateWriterPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

func (flateCodec) Encode(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := flateWriterPool.Get().(*flate.Writer)
	w.Reset(&buf)
	if _, err := w.Write(src); err != nil {
		flateWriterPool.Put(w)
		return nil, err
	}
	if err := w.Close(); err != nil {
		flateWriterPool.Put(w)
		return nil, err
	}
	flateWriterPool.Put(w)
	return buf.Bytes(), nil
}

func (flateCodec) Decode(src []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	return io.ReadAll(r)
}

// lzjCodec is a fast LZ77 compressor in the LZ4 spirit: greedy hash-table
// matching, emitted as (literal-run, match) tokens with varint lengths and
// 2-byte offsets. It favours speed over ratio, matching the role cache
// compression plays in the paper (compression time must be negligible next
// to processing time).
type lzjCodec struct{}

func (lzjCodec) Name() string { return "lzj" }

const (
	lzjMinMatch   = 4
	lzjMaxMatch   = 1 << 12 // bounds a token's output, hence any input's
	lzjMaxOffset  = 1 << 16
	lzjHashBits   = 16
	lzjHashShift  = 64 - lzjHashBits
	lzjHashPrime  = 0x9e3779b185ebca87
	lzjMagic      = 0x4c5a4a31 // "LZJ1"
	lzjHeaderSize = 8          // magic + decompressed length (uint32 each)
)

func lzjHash(v uint64) uint32 { return uint32((v * lzjHashPrime) >> lzjHashShift) }

func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// lzjTablePool recycles the 256KB match table: allocating (and
// zeroing) it per Encode dominated small-payload compression cost.
var lzjTablePool = sync.Pool{New: func() any { return new([1 << lzjHashBits]int32) }}

// Encode compresses src. Format: 4-byte magic, 4-byte original length,
// then tokens: uvarint literal length, literals, and — unless at end —
// uvarint (matchLen - lzjMinMatch) and 2-byte little-endian offset.
func (lzjCodec) Encode(src []byte) ([]byte, error) {
	if len(src) > 1<<31 {
		return nil, fmt.Errorf("lzj: input too large (%d bytes)", len(src))
	}
	out := make([]byte, lzjHeaderSize, lzjHeaderSize+len(src)/2+64)
	binary.LittleEndian.PutUint32(out[0:], lzjMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(len(src)))

	tableP := lzjTablePool.Get().(*[1 << lzjHashBits]int32)
	defer lzjTablePool.Put(tableP)
	table := tableP
	for i := range table {
		table[i] = -1
	}
	var scratch [binary.MaxVarintLen64]byte
	emitLiterals := func(lits []byte) {
		n := binary.PutUvarint(scratch[:], uint64(len(lits)))
		out = append(out, scratch[:n]...)
		out = append(out, lits...)
	}
	emitMatch := func(length, offset int) {
		n := binary.PutUvarint(scratch[:], uint64(length-lzjMinMatch))
		out = append(out, scratch[:n]...)
		out = append(out, byte(offset), byte(offset>>8))
	}

	litStart := 0
	i := 0
	for i+8 <= len(src) {
		h := lzjHash(load64(src, i))
		cand := int(table[h])
		table[h] = int32(i)
		if cand < 0 || i-cand > lzjMaxOffset-1 || load64(src, cand) != load64(src, i) {
			i++
			continue
		}
		// Extend the match.
		matchLen := 8
		for i+matchLen < len(src) && matchLen < lzjMaxMatch && src[cand+matchLen] == src[i+matchLen] {
			matchLen++
		}
		emitLiterals(src[litStart:i])
		emitMatch(matchLen, i-cand)
		i += matchLen
		litStart = i
	}
	emitLiterals(src[litStart:])
	return out, nil
}

// Decode decompresses data produced by Encode.
func (lzjCodec) Decode(src []byte) ([]byte, error) {
	if len(src) < lzjHeaderSize {
		return nil, fmt.Errorf("lzj: truncated header")
	}
	if binary.LittleEndian.Uint32(src) != lzjMagic {
		return nil, fmt.Errorf("lzj: bad magic")
	}
	want := int(binary.LittleEndian.Uint32(src[4:]))
	// A match token spends at least 4 input bytes (two varints and the
	// offset) on at most lzjMaxMatch output bytes, and a literal one
	// input byte on one output byte, so a larger declared length cannot
	// be genuine: reject it before allocating for it.
	if want > (len(src)-lzjHeaderSize)*(lzjMaxMatch/4) {
		return nil, fmt.Errorf("lzj: declared length %d exceeds what %d bytes encode", want, len(src))
	}
	out := make([]byte, 0, want)
	i := lzjHeaderSize
	for i < len(src) {
		litLen, n := binary.Uvarint(src[i:])
		if n <= 0 {
			return nil, fmt.Errorf("lzj: bad literal length at %d", i)
		}
		i += n
		if litLen > uint64(len(src)-i) {
			return nil, fmt.Errorf("lzj: literal run past end")
		}
		out = append(out, src[i:i+int(litLen)]...)
		i += int(litLen)
		if i >= len(src) {
			break
		}
		mlRaw, n := binary.Uvarint(src[i:])
		if n <= 0 {
			return nil, fmt.Errorf("lzj: bad match length at %d", i)
		}
		i += n
		if i+2 > len(src) {
			return nil, fmt.Errorf("lzj: truncated offset")
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		matchLen := int(mlRaw) + lzjMinMatch
		// A match may never carry the output past the declared length:
		// without this check a corrupt varint could drive an unbounded
		// copy loop before the final length comparison ran.
		if mlRaw > lzjMaxMatch-lzjMinMatch || len(out)+matchLen > want {
			return nil, fmt.Errorf("lzj: match overruns declared length %d", want)
		}
		start := len(out) - offset
		if start < 0 || offset == 0 {
			return nil, fmt.Errorf("lzj: invalid offset %d at output size %d", offset, len(out))
		}
		// Overlapping copies must run byte-by-byte.
		for k := 0; k < matchLen; k++ {
			out = append(out, out[start+k])
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("lzj: decompressed %d bytes, header says %d", len(out), want)
	}
	return out, nil
}
