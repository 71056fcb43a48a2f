package cmpsim

import (
	"strings"
	"testing"

	"cmpnurapid/internal/memsys"
)

// TestDiagnosticsCarryPackagePrefix locks the "cmpsim: " message
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
	if !strings.HasPrefix(msg, "cmpsim: cycle limit exceeded") {
		t.Errorf("CycleLimitExceeded prefix wrong: %q", msg)
	}
	for _, want := range []string{"explicit MaxCycles", "private", "adv-hammer", "core 0", "core 1",
		"write 0x20000000", "line state M", "no memory reference issued yet",
		"bus arbitration backlog: 12 cycles"} {
		if !strings.Contains(msg, want) {
			t.Errorf("CycleLimitExceeded message missing %q:\n%s", want, msg)
		}
	}
	lim.BusBacklog = 0
	if !strings.Contains(lim.Error(), "bus arbitration backlog: 0 cycles") {
		t.Errorf("idle-bus limit message: %q", lim.Error())
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
