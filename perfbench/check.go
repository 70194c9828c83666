package main

import (
	"errors"
	"fmt"

	"repro/internal/bugs"
	"repro/internal/checker"
	"repro/internal/cosim"
)

// outcome is what a session must reproduce exactly: its verdict and its
// simulated statistics. Host timings are not part of it.
type outcome struct {
	Finished bool
	TrapCode uint64
	Mismatch *checker.Mismatch
	Detailed *checker.Mismatch // Replay's instruction-level diagnosis

	Cycles, Instrs, Invokes, WireBytes uint64
	SimSeconds                         float64

	Degraded               bool
	Reconnects, Migrations uint64
}

func outcomeOf(r *cosim.Result) outcome {
	o := outcome{
		Finished: r.Finished, TrapCode: r.TrapCode, Mismatch: r.Mismatch,
		Cycles: r.Cycles, Instrs: r.Instrs, Invokes: r.Invokes, WireBytes: r.WireBytes,
		SimSeconds: r.SimSeconds, Degraded: r.Degraded,
	}
	if r.Replay != nil {
		o.Detailed = r.Replay.Detailed
	}
	if r.Exec != nil {
		o.Reconnects, o.Migrations = r.Exec.Reconnects, r.Exec.Migrations
	}
	return o
}

// checkClean checks a session without an injected bug: a good trap, no
// mismatch, and on the networked path no degradation, reconnect or
// migration.
func checkClean(o outcome) error {
	switch {
	case o.Mismatch != nil:
		return fmt.Errorf("clean session reported %v", o.Mismatch)
	case !o.Finished:
		return fmt.Errorf("clean session did not finish")
	case o.TrapCode != 0:
		return fmt.Errorf("clean session hit a bad trap (code %d)", o.TrapCode)
	case o.Degraded:
		return fmt.Errorf("remote session degraded to in-process checking")
	case o.Reconnects != 0 || o.Migrations != 0:
		return fmt.Errorf("remote session reconnected %d times, migrated %d times", o.Reconnects, o.Migrations)
	}
	return nil
}

// errUndetected marks a bug that manifested without being reported. Whether
// the corruption had any effect a checker can observe is for the per-event
// baseline to tell, so the session is settled by running it (see
// bench.settleUndetected).
var errUndetected = errors.New("bug manifested but no mismatch was reported")

// checkBug checks a session with an injected bug against where the bug
// manifested: a bug that fired must be reported at or after the instruction
// it corrupted, with a Replay diagnosis on the Squash path; a bug that never
// fired leaves a clean run.
func checkBug(o outcome, fired *bugs.Fired, squashed bool) error {
	if !fired.Manifested {
		if err := checkClean(o); err != nil {
			return fmt.Errorf("bug never manifested, but: %w", err)
		}
		return nil
	}
	switch {
	case o.Mismatch == nil:
		return fmt.Errorf("at instruction %d: %w", fired.Instr, errUndetected)
	case o.Mismatch.Seq < fired.Instr:
		return fmt.Errorf("mismatch at seq %d precedes the manifestation at instruction %d", o.Mismatch.Seq, fired.Instr)
	case squashed && o.Detailed == nil:
		return fmt.Errorf("replay did not localize %v", o.Mismatch)
	}
	return nil
}

// sameSimulation checks that two runs of the same Params reached the same
// verdict and the same simulated statistics; want is the reference.
func sameSimulation(got, want outcome, what string) error {
	if got.Finished != want.Finished || got.TrapCode != want.TrapCode {
		return fmt.Errorf("%s: finished=%v trap=%d, reference finished=%v trap=%d",
			what, got.Finished, got.TrapCode, want.Finished, want.TrapCode)
	}
	if !sameMismatch(got.Mismatch, want.Mismatch) {
		return fmt.Errorf("%s: verdict %v, reference %v", what, got.Mismatch, want.Mismatch)
	}
	if !sameMismatch(got.Detailed, want.Detailed) {
		return fmt.Errorf("%s: replay diagnosis %v, reference %v", what, got.Detailed, want.Detailed)
	}
	if got.Cycles != want.Cycles || got.Instrs != want.Instrs ||
		got.Invokes != want.Invokes || got.WireBytes != want.WireBytes || got.SimSeconds != want.SimSeconds {
		return fmt.Errorf("%s: cycles=%d instrs=%d invokes=%d wire=%d sim=%v, reference cycles=%d instrs=%d invokes=%d wire=%d sim=%v",
			what, got.Cycles, got.Instrs, got.Invokes, got.WireBytes, got.SimSeconds,
			want.Cycles, want.Instrs, want.Invokes, want.WireBytes, want.SimSeconds)
	}
	return nil
}

func sameMismatch(a, b *checker.Mismatch) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}
