package simguard

import (
	"strings"
	"testing"

	"cmpnurapid/internal/memsys"
)

// TestDiagnosticsCarryPackagePrefix locks the "simguard: " message
// prefix the repository's panic convention requires. The simlint
// panicmsg rule exempts this marked diagnostic type from its
// constant-string check on the strength of this test.
func TestDiagnosticsCarryPackagePrefix(t *testing.T) {
	lim := &CycleLimitExceeded{
		Limit: 1000, Now: 1001, Design: "private", Workload: "adv-hammer",
		Cores: []CoreSnapshot{
			{Core: 0, OutstandingMiss: true, Addr: 0x2000_0000, Write: true, LineState: "M"},
			{Core: 1},
		},
		BusBacklog: memsys.CyclesOf(12),
	}
	msg := lim.Error()
	if !strings.HasPrefix(msg, "simguard: cycle limit exceeded") {
		t.Errorf("CycleLimitExceeded prefix wrong: %q", msg)
	}
	for _, want := range []string{"explicit MaxCycles", "private", "adv-hammer", "core 0", "core 1",
		"write 0x20000000", "line state M", "no memory reference issued yet",
		"bus arbitration backlog: 12 cycles"} {
		if !strings.Contains(msg, want) {
			t.Errorf("CycleLimitExceeded message missing %q:\n%s", want, msg)
		}
	}
	lim.BusBacklog = memsys.CyclesOf(-1)
	if !strings.Contains(lim.Error(), "n/a (design has no bus)") {
		t.Errorf("busless limit message: %q", lim.Error())
	}
	lim.Derived = true
	if !strings.Contains(lim.Error(), "derived from instruction budget") {
		t.Errorf("derived-limit message wrong: %q", lim.Error())
	}
	if lim.String() != lim.Error() {
		t.Error("CycleLimitExceeded String() != Error()")
	}
}

func TestInjectorsDeterministicAndBounded(t *testing.T) {
	a := BusJitter(9, 24)
	b := BusJitter(9, 24)
	for i := 0; i < 500; i++ {
		now := memsys.Cycle(0).Add(memsys.CyclesOf(i))
		ja, jb := a(now), b(now)
		if ja != jb {
			t.Fatalf("BusJitter not reproducible at draw %d: %d vs %d", i, ja, jb)
		}
		if ja < 0 || ja > 24 {
			t.Fatalf("BusJitter out of range: %d", ja)
		}
	}
	la := LatencyNoise(9, 64)
	lb := LatencyNoise(9, 64)
	for i := 0; i < 500; i++ {
		now := memsys.Cycle(0).Add(memsys.CyclesOf(i))
		ja, jb := la(now, i%4, 0x100, false), lb(now, i%4, 0x100, false)
		if ja != jb {
			t.Fatalf("LatencyNoise not reproducible at draw %d", i)
		}
		if ja < 0 || ja > 64 {
			t.Fatalf("LatencyNoise out of range: %d", ja)
		}
	}
}

func TestInjectorsCatalog(t *testing.T) {
	inj := Injectors(1)
	want := []string{"none", "bus-jitter", "latency-noise", "bus-jitter+latency-noise"}
	if len(inj) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(inj), len(want))
	}
	for i, in := range inj {
		if in.Name != want[i] {
			t.Errorf("injector %d = %q, want %q", i, in.Name, want[i])
		}
	}
	if inj[0].Bus != nil || inj[0].Latency != nil {
		t.Error("the control injector must inject nothing")
	}
	if inj[3].Bus == nil || inj[3].Latency == nil {
		t.Error("the combined injector must set both hooks")
	}
}
