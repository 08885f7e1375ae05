package dist

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/dataset"
	"repro/internal/sample"
	"repro/internal/spill"
)

// This file is the dispatch wire's frame: a binary columnar encoding of
// one shard, streamed in both directions of a run request.
//
// Frame layout (all little-endian), following one JSON header line:
//
//	offset 0   magic "DJF2"
//	offset 4   version (2)
//	offset 5   flags (bit 1: delta; every other bit must be zero)
//	offset 6   reserved (2 bytes, zero)
//	offset 8   sample count (uint32; kept count in delta mode)
//	offset 12  input count (uint32; delta mode only, zero otherwise)
//
// The body is a sequence of fixed-size batches. A full batch is
//
//	u32 n | n x u32 text lengths | n x u32 aux lengths | texts | auxes
//
// where each aux is the sample's non-text JSON ({parts, meta, stats},
// empty for a bare-text sample). A delta body starts with a keep bitmap
// over the input shard (bit i, LSB-first, means input sample i
// survived) and its batches carry only a stats column for the kept
// samples:
//
//	u32 n | n x u32 stats lengths | stats objects
//
// The decoder validates every flag, count and length before allocating,
// so a truncated or corrupt frame surfaces as an error the scheduler
// can retry elsewhere — never a panic.
const (
	frame2HeaderSize = 16
	frame2Version    = 2
	f2FlagDelta      = 1 << 1
	frame2BatchSize  = 512
	// frame2MaxCount bounds the sample count a header may claim;
	// frame2MaxSampleLen matches the JSONL reader's line cap.
	frame2MaxCount     = 1 << 26
	frame2MaxSampleLen = 1 << 26
)

var frame2Magic = [4]byte{'D', 'J', 'F', '2'}

// WireStat accounts one stage exchange: bytes on the wire in each
// direction and whether the response was a keep-mask delta.
type WireStat struct {
	Delta bool
	Sent  int64
	Recv  int64
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeFrame2Common(w io.Writer, header any, flags byte, count, inCount int, body func(bw *bufio.Writer) error) (int64, error) {
	hb, err := json.Marshal(header)
	if err != nil {
		return 0, err
	}
	hb = append(hb, '\n')
	cw := &countWriter{w: w}
	bw := bufio.NewWriterSize(cw, 32<<10)
	if _, err := bw.Write(hb); err != nil {
		return cw.n, err
	}
	var hdr [frame2HeaderSize]byte
	copy(hdr[:4], frame2Magic[:])
	hdr[4] = frame2Version
	hdr[5] = flags
	binary.LittleEndian.PutUint32(hdr[8:], uint32(count))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(inCount))
	if _, err := bw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	if err := body(bw); err != nil {
		return cw.n, err
	}
	err = bw.Flush()
	return cw.n, err
}

// WriteFrame2 writes header as one JSON line followed by the full-mode
// columnar frame for d. It returns the bytes put on the wire.
func WriteFrame2(w io.Writer, header any, d *dataset.Dataset) (int64, error) {
	return writeFrame2Common(w, header, 0, d.Len(), 0, func(bw *bufio.Writer) error {
		return writeFullBatches(bw, d.Samples)
	})
}

// WriteDeltaFrame2 writes a delta response: the keep bitmap over
// inCount input samples plus one stats column entry per kept sample, in
// input order.
func WriteDeltaFrame2(w io.Writer, header any, mask []byte, inCount int, kept []*sample.Sample) (int64, error) {
	if len(mask) != (inCount+7)/8 {
		return 0, fmt.Errorf("dist: keep mask is %d bytes for %d inputs", len(mask), inCount)
	}
	return writeFrame2Common(w, header, f2FlagDelta, len(kept), inCount, func(bw *bufio.Writer) error {
		if _, err := bw.Write(mask); err != nil {
			return err
		}
		return writeDeltaBatches(bw, kept)
	})
}

func writeFullBatches(bw *bufio.Writer, samples []*sample.Sample) error {
	lensP := spill.GetFrameBuf(frame2BatchSize * 8)
	auxP := spill.GetFrameBuf(64 << 10)
	defer spill.PutFrameBuf(lensP)
	defer spill.PutFrameBuf(auxP)
	for off := 0; off < len(samples); off += frame2BatchSize {
		batch := samples[off:min(off+frame2BatchSize, len(samples))]
		n := len(batch)
		var nb [4]byte
		binary.LittleEndian.PutUint32(nb[:], uint32(n))
		if _, err := bw.Write(nb[:]); err != nil {
			return err
		}
		// The aux column encodes into scratch first so both length
		// arrays go out before either byte column.
		lens := (*lensP)[:8*n]
		aux := (*auxP)[:0]
		for i, s := range batch {
			if len(s.Text) > frame2MaxSampleLen {
				return fmt.Errorf("dist: sample text %d bytes exceeds frame cap", len(s.Text))
			}
			binary.LittleEndian.PutUint32(lens[i*4:], uint32(len(s.Text)))
			mark := len(aux)
			var err error
			aux, err = s.AppendJSONAux(aux)
			if err != nil {
				return err
			}
			if len(aux)-mark > frame2MaxSampleLen {
				return fmt.Errorf("dist: sample aux %d bytes exceeds frame cap", len(aux)-mark)
			}
			binary.LittleEndian.PutUint32(lens[4*n+i*4:], uint32(len(aux)-mark))
		}
		*auxP = aux[:0]
		if _, err := bw.Write(lens); err != nil {
			return err
		}
		for _, s := range batch {
			if _, err := bw.WriteString(s.Text); err != nil {
				return err
			}
		}
		if _, err := bw.Write(aux); err != nil {
			return err
		}
	}
	return nil
}

func writeDeltaBatches(bw *bufio.Writer, kept []*sample.Sample) error {
	lensP := spill.GetFrameBuf(frame2BatchSize * 4)
	statsP := spill.GetFrameBuf(64 << 10)
	defer spill.PutFrameBuf(lensP)
	defer spill.PutFrameBuf(statsP)
	for off := 0; off < len(kept); off += frame2BatchSize {
		batch := kept[off:min(off+frame2BatchSize, len(kept))]
		n := len(batch)
		var nb [4]byte
		binary.LittleEndian.PutUint32(nb[:], uint32(n))
		if _, err := bw.Write(nb[:]); err != nil {
			return err
		}
		lens := (*lensP)[:4*n]
		stats := (*statsP)[:0]
		for i, s := range batch {
			mark := len(stats)
			if s.Stats.Len() > 0 {
				var err error
				stats, err = s.AppendStatsJSON(stats)
				if err != nil {
					return err
				}
			}
			if len(stats)-mark > frame2MaxSampleLen {
				return fmt.Errorf("dist: sample stats %d bytes exceeds frame cap", len(stats)-mark)
			}
			binary.LittleEndian.PutUint32(lens[i*4:], uint32(len(stats)-mark))
		}
		*statsP = stats[:0]
		if _, err := bw.Write(lens); err != nil {
			return err
		}
		if _, err := bw.Write(stats); err != nil {
			return err
		}
	}
	return nil
}

// Frame2 is one decoded frame body.
type Frame2 struct {
	// Data holds the decoded samples. In delta mode it carries one
	// stats-only sample per kept input, in input order.
	Data    *dataset.Dataset
	Delta   bool
	Mask    []byte // delta only: keep bitmap over InCount inputs
	InCount int    // delta only: inputs the mask covers
	Wire    int64  // bytes consumed off the stream (header line included)
}

// Frame2Reader reads one frame: a JSON header line followed by the
// binary body, off a single buffered reader. Callers read the header
// first — error responses are header-only — then the body.
type Frame2Reader struct {
	br   *bufio.Reader
	wire int64
}

// NewFrame2Reader wraps r for one frame.
func NewFrame2Reader(r io.Reader) *Frame2Reader {
	return &Frame2Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Header reads the JSON header line into v.
func (fr *Frame2Reader) Header(v any) error {
	line, err := fr.br.ReadBytes('\n')
	fr.wire += int64(len(line))
	if err != nil && (err != io.EOF || len(line) == 0) {
		return fmt.Errorf("dist: frame header: %w", err)
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("dist: frame header: %w", err)
	}
	return nil
}

func (fr *Frame2Reader) readFull(p []byte) error {
	n, err := io.ReadFull(fr.br, p)
	fr.wire += int64(n)
	return err
}

// Body decodes the binary frame that follows the header line.
func (fr *Frame2Reader) Body() (*Frame2, error) {
	var hdr [frame2HeaderSize]byte
	if err := fr.readFull(hdr[:]); err != nil {
		return nil, fmt.Errorf("dist: frame2 header: %w", err)
	}
	if [4]byte(hdr[:4]) != frame2Magic {
		return nil, fmt.Errorf("dist: bad frame2 magic %q", hdr[:4])
	}
	if hdr[4] != frame2Version {
		return nil, fmt.Errorf("dist: unsupported frame2 version %d", hdr[4])
	}
	flags := hdr[5]
	if flags&^byte(f2FlagDelta) != 0 {
		return nil, fmt.Errorf("dist: unknown frame2 flags %#x", flags)
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return nil, fmt.Errorf("dist: frame2 reserved bytes nonzero")
	}
	count := int(binary.LittleEndian.Uint32(hdr[8:]))
	inCount := int(binary.LittleEndian.Uint32(hdr[12:]))
	if count > frame2MaxCount || inCount > frame2MaxCount {
		return nil, fmt.Errorf("dist: frame2 claims %d/%d samples, cap %d", count, inCount, frame2MaxCount)
	}
	f := &Frame2{Delta: flags&f2FlagDelta != 0}
	if f.Delta {
		if count > inCount {
			return nil, fmt.Errorf("dist: delta frame keeps %d of %d inputs", count, inCount)
		}
		f.InCount = inCount
		f.Mask = make([]byte, (inCount+7)/8)
		if err := fr.readFull(f.Mask); err != nil {
			return nil, fmt.Errorf("dist: keep mask: %w", err)
		}
		pop := 0
		for _, b := range f.Mask {
			pop += bits.OnesCount8(b)
		}
		if pop != count {
			return nil, fmt.Errorf("dist: keep mask popcount %d, header says %d kept", pop, count)
		}
		if rem := inCount % 8; rem != 0 && f.Mask[len(f.Mask)-1]>>rem != 0 {
			return nil, fmt.Errorf("dist: keep mask has bits past input %d", inCount)
		}
		samples, err := readDeltaBatches(fr, count)
		if err != nil {
			return nil, err
		}
		f.Data = dataset.New(samples)
	} else {
		if inCount != 0 {
			return nil, fmt.Errorf("dist: full frame with input count %d", inCount)
		}
		samples, err := readFullBatches(fr, count)
		if err != nil {
			return nil, err
		}
		f.Data = dataset.New(samples)
	}
	f.Wire = fr.wire
	return f, nil
}

// readBatchCount reads and validates one batch's sample count, which
// must exactly match the writer's batching discipline.
func readBatchCount(fr *Frame2Reader, remaining int) (int, error) {
	var nb [4]byte
	if err := fr.readFull(nb[:]); err != nil {
		return 0, fmt.Errorf("dist: batch count: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(nb[:]))
	if want := min(remaining, frame2BatchSize); n != want {
		return 0, fmt.Errorf("dist: batch count %d, want %d", n, want)
	}
	return n, nil
}

func readFullBatches(fr *Frame2Reader, count int) ([]*sample.Sample, error) {
	samples := make([]*sample.Sample, 0, count)
	lensP := spill.GetFrameBuf(frame2BatchSize * 8)
	defer spill.PutFrameBuf(lensP)
	var scratch []byte
	var texts [frame2BatchSize]string
	for remaining := count; remaining > 0; {
		n, err := readBatchCount(fr, remaining)
		if err != nil {
			return nil, err
		}
		lens := (*lensP)[:8*n]
		if err := fr.readFull(lens); err != nil {
			return nil, fmt.Errorf("dist: column lengths: %w", err)
		}
		for i := 0; i < 2*n; i++ {
			if l := binary.LittleEndian.Uint32(lens[i*4:]); int64(l) > frame2MaxSampleLen {
				return nil, fmt.Errorf("dist: column entry %d bytes exceeds cap", l)
			}
		}
		for i := 0; i < n; i++ {
			l := int(binary.LittleEndian.Uint32(lens[i*4:]))
			if l > len(scratch) {
				scratch = make([]byte, l)
			}
			if err := fr.readFull(scratch[:l]); err != nil {
				return nil, fmt.Errorf("dist: text column: %w", err)
			}
			texts[i] = string(scratch[:l])
		}
		for i := 0; i < n; i++ {
			l := int(binary.LittleEndian.Uint32(lens[4*n+i*4:]))
			s := &sample.Sample{}
			if l > 0 {
				if l > len(scratch) {
					scratch = make([]byte, l)
				}
				if err := fr.readFull(scratch[:l]); err != nil {
					return nil, fmt.Errorf("dist: aux column: %w", err)
				}
				if err := s.UnmarshalJSON(scratch[:l]); err != nil {
					return nil, fmt.Errorf("dist: aux column: %w", err)
				}
			}
			s.Text = texts[i]
			samples = append(samples, s)
		}
		remaining -= n
	}
	return samples, nil
}

func readDeltaBatches(fr *Frame2Reader, count int) ([]*sample.Sample, error) {
	samples := make([]*sample.Sample, 0, count)
	lensP := spill.GetFrameBuf(frame2BatchSize * 4)
	defer spill.PutFrameBuf(lensP)
	var scratch []byte
	for remaining := count; remaining > 0; {
		n, err := readBatchCount(fr, remaining)
		if err != nil {
			return nil, err
		}
		lens := (*lensP)[:4*n]
		if err := fr.readFull(lens); err != nil {
			return nil, fmt.Errorf("dist: stats lengths: %w", err)
		}
		for i := 0; i < n; i++ {
			l := int(binary.LittleEndian.Uint32(lens[i*4:]))
			if int64(l) > frame2MaxSampleLen {
				return nil, fmt.Errorf("dist: stats entry %d bytes exceeds cap", l)
			}
			s := &sample.Sample{}
			if l > 0 {
				if l > len(scratch) {
					scratch = make([]byte, l)
				}
				if err := fr.readFull(scratch[:l]); err != nil {
					return nil, fmt.Errorf("dist: stats column: %w", err)
				}
				if err := s.DecodeStatsJSON(scratch[:l]); err != nil {
					return nil, fmt.Errorf("dist: stats column: %w", err)
				}
			}
			samples = append(samples, s)
		}
		remaining -= n
	}
	return samples, nil
}

// BuildKeepMask derives the keep bitmap mapping kept — an
// order-preserving pointer subset of in, as filter stages produce —
// back onto in. The second result is false when kept is not such a
// subset (the caller must then fall back to a full response).
func BuildKeepMask(in, kept []*sample.Sample) ([]byte, bool) {
	mask := make([]byte, (len(in)+7)/8)
	j := 0
	for i, s := range in {
		if j < len(kept) && kept[j] == s {
			mask[i/8] |= 1 << (i % 8)
			j++
		}
	}
	if j != len(kept) {
		return nil, false
	}
	return mask, true
}

// ApplyKeepMask selects the masked-in samples in input order. The mask
// must cover len(in) samples (validated at decode).
func ApplyKeepMask(in []*sample.Sample, mask []byte) []*sample.Sample {
	kept := make([]*sample.Sample, 0, len(in))
	for i, s := range in {
		if mask[i/8]&(1<<(i%8)) != 0 {
			kept = append(kept, s)
		}
	}
	return kept
}
