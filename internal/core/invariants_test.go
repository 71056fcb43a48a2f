package core

import (
	"strings"
	"testing"

	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/topo"
)

// Negative-path tests for CheckInvariants: each deliberately corrupts
// one structure the checker guards — a forward pointer, a free list,
// the MESIC single-writer rule — and asserts the panic names the
// right violation. A checker that cannot fail protects nothing.

// expectInvariantPanic runs CheckInvariants on a deliberately
// corrupted cache and asserts it panics with a message containing
// want.
func expectInvariantPanic(t *testing.T, c *Cache, want string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("CheckInvariants accepted corrupted state; want panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want substring %q", msg, want)
		}
		if !strings.HasPrefix(msg, "core: ") {
			t.Fatalf("panic %q does not follow the \"core: \" prefix convention", msg)
		}
	}()
	c.CheckInvariants()
}

func TestInvariantsDetectDanglingForwardPointer(t *testing.T) {
	c := New(tinyConfig())
	read(c, 0, 0, 0x1000)
	l := c.tags[0].Probe(0x1000)
	if l == nil {
		t.Fatal("no tag installed by read")
	}
	// Redirect the tag at a frame still on the free list.
	l.Data.fwd.f++
	expectInvariantPanic(t, c, "dangling forward pointer")
}

func TestInvariantsDetectFreeListCorruption(t *testing.T) {
	t.Run("duplicate entry", func(t *testing.T) {
		c := New(tinyConfig())
		read(c, 0, 0, 0x1000)
		dg := c.dgroups[topo.Closest(0)]
		dg.free = append(dg.free, dg.free[0])
		expectInvariantPanic(t, c, "on free list twice")
	})
	t.Run("valid frame on free list", func(t *testing.T) {
		c := New(tinyConfig())
		read(c, 0, 0, 0x1000)
		dg := c.dgroups[topo.Closest(0)]
		// The read allocated exactly one frame; push it back on the
		// free list while its tag still points at it.
		for fi := range dg.frames {
			if dg.frames[fi].valid {
				dg.free = append(dg.free, int32(fi))
			}
		}
		expectInvariantPanic(t, c, "on-free-list")
	})
}

func TestInvariantsDetectMultipleWriters(t *testing.T) {
	c := New(tinyConfig())
	write(c, 0, 0, 0x1000)
	l0 := c.tags[0].Probe(0x1000)
	if l0 == nil || l0.Data.state != coherence.Modified {
		t.Fatal("write did not install an M tag")
	}
	// Forge a second M tag for the same block in another core's array,
	// violating the MESIC single-writer rule (§3.1).
	v := c.tags[1].Victim(0x1000)
	c.tags[1].Install(v, 0x1000, tagPayload{state: coherence.Modified, fwd: l0.Data.fwd})
	expectInvariantPanic(t, c, "exclusive-owner tags")
}
