package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/checker"
	"repro/internal/cosim"
)

func TestChecksRejectWrongVerdicts(t *testing.T) {
	clean := outcome{Finished: true, Cycles: 10, Instrs: 9, Invokes: 3, WireBytes: 100, SimSeconds: 1}
	if err := checkClean(clean); err != nil {
		t.Fatalf("good clean outcome rejected: %v", err)
	}
	m := &checker.Mismatch{Seq: 50, Detail: "x"}
	for name, o := range map[string]outcome{
		"mismatch":   {Finished: true, Mismatch: m},
		"unfinished": {},
		"bad trap":   {Finished: true, TrapCode: 1},
		"degraded":   {Finished: true, Degraded: true},
		"reconnect":  {Finished: true, Reconnects: 1},
	} {
		if checkClean(o) == nil {
			t.Errorf("clean check accepted %s", name)
		}
	}

	fired := &bugs.Fired{Manifested: true, Instr: 40}
	if err := checkBug(outcome{Mismatch: m, Detailed: m}, fired, true); err != nil {
		t.Errorf("detected bug rejected: %v", err)
	}
	if err := checkBug(outcome{Finished: true}, fired, true); !errors.Is(err, errUndetected) {
		t.Errorf("undetected bug: %v, want errUndetected", err)
	}
	if checkBug(outcome{Mismatch: &checker.Mismatch{Seq: 39}, Detailed: m}, fired, true) == nil {
		t.Error("mismatch before the manifestation accepted")
	}
	if checkBug(outcome{Mismatch: m}, fired, true) == nil {
		t.Error("squashed mismatch without a replay diagnosis accepted")
	}
	if checkBug(outcome{Mismatch: m}, &bugs.Fired{}, true) == nil {
		t.Error("mismatch from a bug that never fired accepted")
	}

	if err := sameSimulation(clean, clean, "same"); err != nil {
		t.Errorf("identical outcomes differ: %v", err)
	}
	for name, edit := range map[string]func(*outcome){
		"verdict":  func(o *outcome) { o.Mismatch = m },
		"trap":     func(o *outcome) { o.TrapCode = 2 },
		"cycles":   func(o *outcome) { o.Cycles++ },
		"invokes":  func(o *outcome) { o.Invokes++ },
		"wire":     func(o *outcome) { o.WireBytes++ },
		"sim time": func(o *outcome) { o.SimSeconds *= 1.0000001 },
	} {
		o := clean
		edit(&o)
		if sameSimulation(o, clean, name) == nil {
			t.Errorf("a different %s went unnoticed", name)
		}
	}
}

// runShort runs the shortest end-to-end measurement that still has a tail
// percentile (a p50 needs 2·minBeyond sessions) and returns the exit code and the final JSON line.
func runShort(t *testing.T, tamper func(*cosim.Result)) (int, map[string]any) {
	t.Helper()
	w, _ := workloadByName("linux-eb-executed")
	var out bytes.Buffer
	code := execute(config{w: w, seed: defaultSeed, minSessions: 2 * minBeyond, dir: t.TempDir(), tamper: tamper}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	return code, res
}

// TestWrongVerdictFailsTheRun is the benchmark's self-test: a verdict that
// is wrong must show as failed sessions and a nonzero exit.
func TestWrongVerdictFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs co-simulation sessions")
	}
	code, res := runShort(t, nil)
	if code != 0 || res["correct"] != true || res["failed"].(float64) != 0 {
		t.Fatalf("untampered run: exit %d, result %v", code, res)
	}
	code, res = runShort(t, func(r *cosim.Result) {
		r.Mismatch = &checker.Mismatch{Detail: "injected wrong verdict"}
	})
	if code == 0 || res["correct"] != false || res["failed"].(float64) == 0 {
		t.Fatalf("wrong verdict: exit %d, result %v; want a nonzero exit and failed sessions", code, res)
	}
	if res["failed"].(float64) > res["attempted"].(float64) {
		t.Fatalf("failed %v exceeds attempted %v", res["failed"], res["attempted"])
	}
}
