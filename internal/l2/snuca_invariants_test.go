package l2

import (
	"strings"
	"testing"

	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
)

func TestSNUCAInvariantsHoldUnderTraffic(t *testing.T) {
	for _, s := range []*SNUCA{smallSNUCA(), smallDNUCA()} {
		s.SetL1Invalidate(func(core int, addr memsys.Addr) {})
		r := rng.New(7)
		now := memsys.Cycle(0)
		for i := 0; i < 20000; i++ {
			coreID := r.Intn(topo.NumCores)
			addr := memsys.Addr(0x4000*(coreID+1) + r.Intn(256)*64)
			s.Access(now, coreID, addr, r.Hit(rng.ChanceOf(0.25)))
			now += memsys.Cycle(r.Intn(10) + 1)
			if i%4000 == 0 {
				s.CheckInvariants()
			}
		}
		s.CheckInvariants()
		if s.Stats().Accesses.Total() != 20000 {
			t.Errorf("%s: access count mismatch", s.Name())
		}
	}
}

// TestSNUCAInvariantsDetectDoubleResidency: a block allocated twice in
// one bank's set, or (under Migrate) in both banks of its bankset, is
// refused.
func TestSNUCAInvariantsDetectDoubleResidency(t *testing.T) {
	for _, c := range []struct {
		s      *SNUCA
		b1, b2 int // the banks holding the two copies of block 0
	}{
		{smallSNUCA(), 0, 0},
		{smallDNUCA(), 0, 3},
	} {
		// Bypass Access's probe-before-install discipline.
		set1, set2 := c.s.banks[c.b1].Set(0), c.s.banks[c.b2].Set(0)
		c.s.banks[c.b1].Install(&set1[0], 0, sharedPayload{})
		c.s.banks[c.b2].Install(&set2[1], 0, sharedPayload{})
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: CheckInvariants accepted a double-resident block", c.s.Name())
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "twice") || !strings.HasPrefix(msg, "l2: ") {
					t.Fatalf("%s: panic = %v, want l2-prefixed double-residency message", c.s.Name(), r)
				}
			}()
			c.s.CheckInvariants()
		}()
	}
}
