package experiments

import (
	"fmt"
	"runtime/debug"
)

// Graceful degradation (docs/ROBUSTNESS.md): a panicking cell — a
// cmpsim cycle-ceiling abort, an invariant violation, any bug in one
// (design, workload) simulation — must not take down the dozens of
// healthy cells sharing the run. CapturePanic converts the panic into
// a CellFailure at the cell boundary; the scheduler collects failures
// and keeps executing, and cmd/experiments renders failed experiments
// as ERR with a failure report after the tables.

// CellFailure describes one failed cell or experiment render.
type CellFailure struct {
	// Key is the cell key (or experiment name) that failed.
	Key string
	// Diagnostic is the panic value rendered for the failure report:
	// Error() for errors (cmpsim diagnostics), %v otherwise.
	Diagnostic string
	// Value is the recovered panic value, preserved so tests can
	// assert on structured diagnostics (*cmpsim.CycleLimitExceeded,
	// ...).
	Value any
	// Stack is the goroutine stack captured where the panic was first
	// recovered — the simulation's stack, not a later cache read's.
	Stack string
}

// cellPanic re-throws a poisoned cache entry's original panic: reads
// of a failed memo entry panic with the original value and the stack
// of the original fill, so a cell that failed once fails identically
// everywhere it is read, in any execution order. CapturePanic unwraps
// it, so the reported diagnostic is always the original value's.
//
// panicmsg:diagnostic
type cellPanic struct {
	value any
	stack string
}

// describeDiagnostic renders a panic value for the failure report.
func describeDiagnostic(v any) string {
	switch d := v.(type) {
	case error:
		return d.Error()
	case fmt.Stringer:
		return d.String()
	}
	return fmt.Sprintf("%v", v)
}

// CapturePanic runs fn and converts a panic into a *CellFailure (nil
// when fn completes). It is the scheduler's designated cell-recovery
// helper — the only function in the repository allowed to call
// recover() over simulation code (the simlint recovercheck rule
// enforces this), so a panic can never be silently swallowed anywhere
// else.
func CapturePanic(key string, fn func()) (failure *CellFailure) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if cp, ok := r.(cellPanic); ok {
			// A poisoned cache entry: report the original panic and
			// the stack of the fill that produced it.
			failure = &CellFailure{
				Key: key, Diagnostic: describeDiagnostic(cp.value),
				Value: cp.value, Stack: cp.stack,
			}
			return
		}
		failure = &CellFailure{
			Key: key, Diagnostic: describeDiagnostic(r),
			Value: r, Stack: string(debug.Stack()),
		}
	}()
	fn()
	return nil
}
