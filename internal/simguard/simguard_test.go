package simguard

import (
	"strings"
	"testing"

	"cmpnurapid/internal/memsys"
)

func TestWatchdogTripsOnStepsWithFrozenClock(t *testing.T) {
	// The zero-work livelock: the clock never advances, so only the
	// step counter can see the stall.
	wd := NewWatchdog(memsys.CyclesOf(100))
	var now memsys.Cycle
	if wd.Observe(now, 1) {
		t.Fatal("tripped on a retiring step")
	}
	for i := 0; i < 100; i++ {
		if wd.Observe(now, 0) {
			t.Fatalf("tripped after %d steps, window is 100", i+1)
		}
	}
	if !wd.Observe(now, 0) {
		t.Fatal("did not trip after a full step window without retirement")
	}
	if wd.StepsSinceRetire() != 101 {
		t.Errorf("StepsSinceRetire = %d, want 101", wd.StepsSinceRetire())
	}
}

func TestWatchdogTripsOnCycles(t *testing.T) {
	// The spinning livelock: the clock advances but nothing retires.
	wd := NewWatchdog(memsys.CyclesOf(100))
	var now memsys.Cycle
	wd.Observe(now, 1)
	now = now.Add(memsys.CyclesOf(100))
	if wd.Observe(now, 0) {
		t.Fatal("tripped exactly at the window boundary")
	}
	now = now.Add(memsys.CyclesOf(1))
	if !wd.Observe(now, 0) {
		t.Fatal("did not trip past the cycle window")
	}
}

func TestWatchdogResetsOnRetirement(t *testing.T) {
	wd := NewWatchdog(memsys.CyclesOf(50))
	var now memsys.Cycle
	for i := 0; i < 1000; i++ {
		now = now.Add(memsys.CyclesOf(40))
		if wd.Observe(now, 1) {
			t.Fatalf("tripped at step %d despite steady retirement", i)
		}
	}
	if wd.StepsSinceRetire() != 0 {
		t.Errorf("StepsSinceRetire = %d after retirement, want 0", wd.StepsSinceRetire())
	}
}

func TestNewWatchdogDefaultWindow(t *testing.T) {
	for _, w := range []memsys.Cycles{0, -5} {
		if got := NewWatchdog(w).Window(); got != DefaultStallWindow {
			t.Errorf("NewWatchdog(%d).Window() = %d, want default %d", w, got, DefaultStallWindow)
		}
	}
	if got := NewWatchdog(memsys.CyclesOf(7)).Window(); got != 7 {
		t.Errorf("explicit window = %d, want 7", got)
	}
}

// TestDiagnosticsCarryPackagePrefix locks the "simguard: " message
// prefix the repository's panic convention requires. The simlint
// panicmsg rule exempts these marked diagnostic types from its
// constant-string check on the strength of this test.
func TestDiagnosticsCarryPackagePrefix(t *testing.T) {
	stall := &ProgressStall{
		Window: memsys.CyclesOf(100), Steps: 101,
		Design: "private", Workload: "adv-hammer",
		Cores: []CoreSnapshot{
			{Core: 0, OutstandingMiss: true, Addr: 0x2000_0000, Write: true, LineState: "M"},
			{Core: 1},
		},
		BusBacklog: memsys.CyclesOf(12),
	}
	msg := stall.Error()
	if !strings.HasPrefix(msg, "simguard: forward-progress stall") {
		t.Errorf("ProgressStall prefix wrong: %q", msg)
	}
	for _, want := range []string{"private", "adv-hammer", "core 0", "core 1",
		"write 0x20000000", "line state M", "no memory reference issued yet",
		"bus arbitration backlog: 12 cycles"} {
		if !strings.Contains(msg, want) {
			t.Errorf("ProgressStall message missing %q:\n%s", want, msg)
		}
	}
	if stall.String() != msg {
		t.Error("ProgressStall String() != Error()")
	}

	noBus := &ProgressStall{BusBacklog: memsys.CyclesOf(-1)}
	if !strings.Contains(noBus.Error(), "n/a (design has no bus)") {
		t.Errorf("busless stall message: %q", noBus.Error())
	}

	lim := &CycleLimitExceeded{Limit: 1000, Now: 1001, Design: "ideal", Workload: "oltp"}
	msg = lim.Error()
	if !strings.HasPrefix(msg, "simguard: cycle limit exceeded") {
		t.Errorf("CycleLimitExceeded prefix wrong: %q", msg)
	}
	if !strings.Contains(msg, "explicit MaxCycles") {
		t.Errorf("explicit-limit message wrong: %q", msg)
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
