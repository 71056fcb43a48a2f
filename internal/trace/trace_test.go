package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/workload"
)

func TestRoundTripSingleOp(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	op := cmpsim.Op{Compute: 7, Addr: 0xdeadbe00, Write: true}
	if err := w.Write(2, op); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	core, got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if core != 2 || got != op {
		t.Errorf("round trip: core %d op %+v, want core 2 %+v", core, got, op)
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

// TestRoundTripProperty: every op the format accepts round-trips, and
// a zero-work op (nomem, compute 0) is refused on write and on read.
func TestRoundTripProperty(t *testing.T) {
	f := func(core uint8, compute uint16, addr uint64, write, instr, nomem bool) bool {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		op := cmpsim.Op{
			Compute: int(compute), Addr: memsys.Addr(addr),
			Write: write, Instr: instr, NoMem: nomem,
		}
		c := int(core) % topo.NumCores
		if nomem && compute == 0 {
			rec := append(header(topo.NumCores), byte(c), flagNoMem, 0, 0)
			rec = binary.LittleEndian.AppendUint64(rec, addr)
			r, err := NewReader(bytes.NewReader(rec))
			if err != nil {
				return false
			}
			_, _, rerr := r.Next()
			werr := w.Write(c, op)
			return refused(werr) && refused(rerr) && w.Count() == 0
		}
		if err := w.Write(c, op); err != nil {
			return false
		}
		w.Flush()
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		gc, gop, err := r.Next()
		return err == nil && gc == c && gop == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Random draws almost never hit compute 0 with nomem set.
	for core := uint8(0); core < topo.NumCores; core++ {
		if !f(core, 0, 0x40*uint64(core), core%2 == 0, core >= 2, true) {
			t.Errorf("zero-work op for core %d not refused on write and read", core)
		}
	}
}

// refused reports whether err is a trace: error.
func refused(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "trace: ")
}

// TestUnknownFlagBitsRefused: a record whose flags set any bit outside
// write, instr and nomem is refused, not read as the op its known bits
// spell (0xF9 would otherwise load as a write).
func TestUnknownFlagBitsRefused(t *testing.T) {
	for _, flags := range []byte{0xF9, 1 << 3, 1 << 4, 1 << 5, 1 << 6, 1 << 7} {
		rec := append(header(topo.NumCores), 0, flags, 1, 0)
		rec = binary.LittleEndian.AppendUint64(rec, 0x40)
		r, err := NewReader(bytes.NewReader(rec))
		if err != nil {
			t.Fatal(err)
		}
		if _, op, err := r.Next(); !refused(err) {
			t.Errorf("flags %#x: read %+v, err %v; want a trace: error", flags, op, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(0, cmpsim.Op{Addr: 0x40})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err == nil {
		t.Error("truncated record accepted")
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, core := range []int{-1, topo.NumCores} {
		if err := w.Write(core, cmpsim.Op{}); err == nil {
			t.Errorf("out-of-range core %d accepted", core)
		}
	}
	if err := w.Write(0, cmpsim.Op{Compute: 1 << 16}); err == nil {
		t.Error("oversized compute accepted")
	}
}

func TestRecordAndReplayMatchesGenerator(t *testing.T) {
	// A replayed trace must feed the simulator exactly the ops a fresh
	// generator with the same seed would have.
	var buf bytes.Buffer
	if err := Record(&buf, workload.New(workload.SPECjbb(9)), 500); err != nil {
		t.Fatal(err)
	}
	rp, err := Load(bytes.NewReader(buf.Bytes()), "jbb")
	if err != nil {
		t.Fatal(err)
	}
	if rp.Name() != "jbb" {
		t.Errorf("Name = %q", rp.Name())
	}
	fresh := workload.New(workload.SPECjbb(9))
	for i := 0; i < 500; i++ {
		for c := 0; c < 4; c++ {
			want := fresh.Next(c)
			got := rp.Next(c)
			if got != want {
				t.Fatalf("op %d core %d: replay %+v != generator %+v", i, c, got, want)
			}
		}
	}
	if rp.Len(0) != 500 {
		t.Errorf("Len(0) = %d, want 500", rp.Len(0))
	}
}

func TestReplayerExhaustion(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(&buf, workload.New(workload.Barnes(3)), 10); err != nil {
		t.Fatal(err)
	}
	rp, err := Load(bytes.NewReader(buf.Bytes()), "b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rp.Next(1)
	}
	// Exhausted: spins on compute ops.
	if op := rp.Next(1); !op.NoMem {
		t.Errorf("exhausted replayer returned %+v, want compute spin", op)
	}
}

// header returns a version-1 trace header claiming cores cores.
func header(cores uint16) []byte {
	h := append([]byte{}, Magic[:]...)
	h = binary.LittleEndian.AppendUint16(h, Version)
	return binary.LittleEndian.AppendUint16(h, cores)
}

// TestOtherCoreCountsRejected: the machine always has topo.NumCores
// cores, so a trace with fewer (whose replay would index a missing
// core) or more (whose extra streams would be dropped) is an error at
// load time, not a panic or a silent truncation during replay.
func TestOtherCoreCountsRejected(t *testing.T) {
	for _, cores := range []uint16{2, 5} {
		data := append(header(cores), 0, 0, 1, 0, 0x40, 0, 0, 0, 0, 0, 0, 0) // one op for core 0
		if _, err := NewReader(bytes.NewReader(data)); err == nil || !strings.HasPrefix(err.Error(), "trace: ") {
			t.Errorf("%d-core header: NewReader error %v, want a trace: error", cores, err)
		}
		if _, err := Load(bytes.NewReader(data), "x"); err == nil {
			t.Errorf("%d-core trace loaded", cores)
		}
	}
	if _, err := NewReader(bytes.NewReader(header(topo.NumCores))); err != nil {
		t.Errorf("%d-core header rejected: %v", topo.NumCores, err)
	}
}
