// Package trace records and replays memory-reference traces. A trace
// captures a workload's per-core op streams in a compact binary format
// so experiments can be re-run bit-identically without the generator,
// exchanged between machines, or inspected offline — the reproduction's
// stand-in for the paper's captured Simics runs.
//
// Format (little-endian):
//
//	magic "CNRT" | version u16 | cores u16 (always topo.NumCores)
//	then one record per op:
//	  core u8 | flags u8 | compute u16 | addr u64
//	flags: bit0 write, bit1 instr, bit2 nomem; bits 3-7 must be zero
//
// A nomem record must carry compute >= 1: the simulator refuses an op
// that does no work, so the format refuses it too, on write and read.
//
// Records appear in the interleaved order they were drawn, so replay
// hands each core its ops in the original per-core order regardless of
// how the consuming simulator interleaves cores.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// Magic identifies trace streams.
var Magic = [4]byte{'C', 'N', 'R', 'T'}

// Version is the current format version.
const Version = 1

const (
	flagWrite = 1 << iota
	flagInstr
	flagNoMem
	flagsKnown = flagWrite | flagInstr | flagNoMem
)

// errZeroWork refuses a record the simulator could not execute.
var errZeroWork = errors.New("trace: zero-work op (nomem record with compute 0)")

// Writer streams ops into a trace.
type Writer struct {
	w     *bufio.Writer
	count uint64
}

// NewWriter writes a trace header for the machine's topo.NumCores
// cores.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(Magic[:]); err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], Version)
	binary.LittleEndian.PutUint16(hdr[2:4], topo.NumCores)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one op for core.
func (t *Writer) Write(core int, op cmpsim.Op) error {
	if core < 0 || core >= topo.NumCores {
		return fmt.Errorf("trace: core %d out of range [0, %d)", core, topo.NumCores)
	}
	if op.Compute < 0 || op.Compute > 0xffff {
		return fmt.Errorf("trace: compute %d does not fit in 16 bits", op.Compute)
	}
	if op.NoMem && op.Compute == 0 {
		return errZeroWork
	}
	var rec [12]byte
	rec[0] = byte(core)
	var flags byte
	if op.Write {
		flags |= flagWrite
	}
	if op.Instr {
		flags |= flagInstr
	}
	if op.NoMem {
		flags |= flagNoMem
	}
	rec[1] = flags
	binary.LittleEndian.PutUint16(rec[2:4], uint16(op.Compute))
	binary.LittleEndian.PutUint64(rec[4:12], uint64(op.Addr))
	if _, err := t.w.Write(rec[:]); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns the number of ops written.
func (t *Writer) Count() uint64 { return t.count }

// Flush drains buffered records to the underlying writer.
func (t *Writer) Flush() error { return t.w.Flush() }

// Record captures opsPerCore ops of every core from w into out.
func Record(out io.Writer, w cmpsim.Workload, opsPerCore int) error {
	tw, err := NewWriter(out)
	if err != nil {
		return err
	}
	for i := 0; i < opsPerCore; i++ {
		for c := 0; c < topo.NumCores; c++ {
			if err := tw.Write(c, w.Next(c)); err != nil {
				return err
			}
		}
	}
	return tw.Flush()
}

// Reader decodes a trace.
type Reader struct {
	r *bufio.Reader
}

// NewReader validates the header and returns a reader. A trace must
// hold the machine's topo.NumCores cores: the simulator has no other
// shape to replay it on.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, errors.New("trace: bad magic (not a trace stream)")
	}
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	if n := binary.LittleEndian.Uint16(hdr[2:4]); n != topo.NumCores {
		return nil, fmt.Errorf("trace: %d-core trace, but the machine has %d cores", n, topo.NumCores)
	}
	return &Reader{r: br}, nil
}

// Next returns the next record, or io.EOF at the end of the trace.
func (t *Reader) Next() (core int, op cmpsim.Op, err error) {
	var rec [12]byte
	if _, err = io.ReadFull(t.r, rec[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = fmt.Errorf("trace: truncated record: %w", err)
		}
		return 0, cmpsim.Op{}, err
	}
	core = int(rec[0])
	if core >= topo.NumCores {
		return 0, cmpsim.Op{}, fmt.Errorf("trace: record for core %d in a %d-core trace", core, topo.NumCores)
	}
	flags := rec[1]
	if flags&^flagsKnown != 0 {
		return 0, cmpsim.Op{}, fmt.Errorf("trace: record flags %#x set bits outside write, instr and nomem", flags)
	}
	op = cmpsim.Op{
		Compute: int(binary.LittleEndian.Uint16(rec[2:4])),
		Addr:    memsys.Addr(binary.LittleEndian.Uint64(rec[4:12])),
		Write:   flags&flagWrite != 0,
		Instr:   flags&flagInstr != 0,
		NoMem:   flags&flagNoMem != 0,
	}
	if op.NoMem && op.Compute == 0 {
		return 0, cmpsim.Op{}, errZeroWork
	}
	return core, op, nil
}

// Replayer feeds a fully loaded trace to the simulator as a
// cmpsim.Workload. Cores that exhaust their recorded stream receive
// single-instruction compute ops, like a program spinning after its
// measured region.
type Replayer struct {
	name string
	ops  [][]cmpsim.Op
	pos  []int
}

// Load reads an entire trace into a Replayer.
func Load(r io.Reader, name string) (*Replayer, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rp := &Replayer{
		name: name,
		ops:  make([][]cmpsim.Op, topo.NumCores),
		pos:  make([]int, topo.NumCores),
	}
	for {
		core, op, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return rp, nil
		}
		if err != nil {
			return nil, err
		}
		rp.ops[core] = append(rp.ops[core], op)
	}
}

// Name implements cmpsim.Workload.
func (rp *Replayer) Name() string { return rp.name }

// Len returns the recorded op count for core.
func (rp *Replayer) Len(core int) int { return len(rp.ops[core]) }

// Next implements cmpsim.Workload: one op, drawn by Fill.
//
// hotpath:root
func (rp *Replayer) Next(core int) cmpsim.Op {
	var op [1]cmpsim.Op
	rp.Fill(core, op[:])
	return op[0]
}

// Fill writes core's next len(ops) ops, which cmpsim calls to refill a
// core's op buffer: the recorded ops first, then the idle compute ops.
//
// hotpath:root
func (rp *Replayer) Fill(core int, ops []cmpsim.Op) {
	n := copy(ops, rp.ops[core][rp.pos[core]:])
	rp.pos[core] += n
	for i := n; i < len(ops); i++ {
		ops[i] = cmpsim.Op{Compute: 1, NoMem: true}
	}
}
