package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bugs"
	"repro/internal/cosim"
	"repro/internal/fleet"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// config is one benchmark run.
type config struct {
	w           workloadDef
	seed        int64
	seconds     float64
	trace       bool
	minSessions int    // sessions an end-to-end window must reach
	dir         string // runtime files: sockets, span dumps
	// tamper, when set, edits every result of the end-to-end window before
	// it is checked; the self-test uses it to feed a wrong verdict.
	tamper func(*cosim.Result)
}

// sessionResult is one session's measurement and check.
type sessionResult struct {
	idx, key int
	dur      time.Duration
	cpu      time.Duration // process CPU time that elapsed during the session
	out      outcome
	exec     *pipeline.Metrics
	err      error // the run's error or the first failed check
}

type bench struct {
	cfg    config
	rig    *fleetRig
	tracer *shardTracer // trace runs: wraps the shards' session checkers
	refs   map[int]outcome
}

// prepare returns the runnable Params of session i and, for a bug session,
// the bug's manifestation record.
func (b *bench) prepare(i int) (plannedSession, cosim.Params, *bugs.Fired) {
	ps := b.cfg.w.session(b.cfg.seed, i)
	p := ps.p
	if b.rig != nil {
		p.RemoteAddr = b.rig.addr
	}
	var fired *bugs.Fired
	if ps.bug != nil {
		p.Hooks, fired = ps.bug.Instrument(0)
	}
	return ps, p, fired
}

// check applies the per-session checks that need no other run.
func (b *bench) check(ps plannedSession, p cosim.Params, fired *bugs.Fired, o outcome) error {
	if ps.bug != nil {
		return checkBug(o, fired, p.Opt.Squash && p.RemoteAddr == "")
	}
	return checkClean(o)
}

// runUntraced runs session i through cosim.Run, as a user of the program
// would.
func (b *bench) runUntraced(i int) sessionResult { return b.runCosim(i, nil) }

func (b *bench) runCosim(i int, tamper func(*cosim.Result)) sessionResult {
	ps, p, fired := b.prepare(i)
	r := sessionResult{idx: i, key: ps.key}
	c0, t0 := cpuTime(), time.Now()
	res, err := cosim.Run(p)
	r.dur, r.cpu = time.Since(t0), cpuTime()-c0
	if err != nil {
		r.err = err
		return r
	}
	if tamper != nil {
		tamper(res)
	}
	r.out, r.exec = outcomeOf(res), res.Exec
	r.err = b.check(ps, p, fired, r.out)
	return r
}

// runTraced runs session i composed from the layers' public calls, recording
// spans into a fresh session trace.
func (b *bench) runTraced(i int) (sessionResult, *sessTrace) {
	ps, p, fired := b.prepare(i)
	r := sessionResult{idx: i, key: ps.key}
	st := newSessTrace(i)
	if b.rig != nil {
		b.tracer.register(p.Seed, st)
	}
	t0 := time.Now()
	o, err := runComposed(p, st)
	r.dur = time.Since(t0)
	if err != nil {
		r.err = err
		return r, st
	}
	r.out = o
	r.err = b.check(ps, p, fired, o)
	return r, st
}

// reference returns the modeled run of a clean session's Params: the
// sequential in-process loop, against which executed and networked runs of
// the same program must agree exactly.
func (b *bench) reference(i int) (outcome, error) {
	ps := b.cfg.w.session(b.cfg.seed, i)
	if o, ok := b.refs[ps.key]; ok {
		return o, nil
	}
	p := ps.p
	p.Opt.Executed = false
	res, err := cosim.Run(p)
	if err != nil {
		return outcome{}, fmt.Errorf("modeled reference: %w", err)
	}
	o := outcomeOf(res)
	b.refs[ps.key] = o
	return o, nil
}

// settleUndetected settles bug sessions that reported no mismatch although
// the bug manifested. The unoptimized per-event configuration (Z) checks every
// event of every instruction; if it also reports nothing, the corruption had
// no effect a checker observes and the clean verdict stands. If Z reports a
// mismatch, the session's configuration missed a detectable bug.
func (b *bench) settleUndetected(rs []sessionResult) {
	for j := range rs {
		r := &rs[j]
		if !errors.Is(r.err, errUndetected) {
			continue
		}
		ps, p, _ := b.prepare(r.idx)
		p.RemoteAddr = ""
		p.Opt, _ = cosim.ParseConfig("Z")
		res, err := cosim.Run(p)
		switch {
		case err != nil:
			r.err = fmt.Errorf("per-event baseline: %w", err)
		case res.Mismatch != nil:
			r.err = fmt.Errorf("%s escaped detection: the per-event baseline (Z) reports %v (%w)",
				ps.bug.ID, res.Mismatch, r.err)
		default:
			r.err = checkClean(r.out)
		}
	}
}

// verifyAgainstModeled checks clean sessions against their modeled runs.
// Bug sessions were checked against their manifestation already.
func (b *bench) verifyAgainstModeled(rs []sessionResult) {
	for j := range rs {
		r := &rs[j]
		if r.err != nil || b.cfg.w.session(b.cfg.seed, r.idx).bug != nil {
			continue
		}
		ref, err := b.reference(r.idx)
		if err != nil {
			r.err = err
			continue
		}
		r.err = sameSimulation(r.out, ref, "run vs modeled run")
	}
}

// closedLoop runs sessions from index next on b.cfg.w.clients clients until
// stop(index, elapsed) holds for the next index. Each client starts its next
// session only after the previous one's verdict. It returns the results, the
// wall time from start until the last session ended, and the next unused
// index.
func (b *bench) closedLoop(next int, stop func(i int, elapsed time.Duration) bool,
	run func(i int) sessionResult) ([]sessionResult, time.Duration, int) {
	var mu sync.Mutex
	var results []sessionResult
	stopped := false
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < b.cfg.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if !stopped && stop(next, time.Since(t0)) {
					stopped = true
				}
				if stopped {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				r := run(i)
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, time.Since(t0), next
}

// setUp starts the workload's servers, if any, and runs one warm-up session
// per client. Set-up rep warms up on sessions from rep·clients on, so that
// successive set-ups run different programs and their median does not rest
// on the cost of one program. It returns the wall and CPU time that took.
func (b *bench) setUp(rep int, newSession transport.NewSessionFunc) (wall, cpu time.Duration, err error) {
	c0, t0 := cpuTime(), time.Now()
	if b.cfg.w.fleet {
		rig, err := startFleet(b.cfg.dir, 2, newSession)
		if err != nil {
			return 0, 0, err
		}
		b.rig = rig
	}
	first := rep * b.cfg.w.clients
	warm, _, _ := b.closedLoop(first, func(i int, _ time.Duration) bool { return i >= first+b.cfg.w.clients }, b.runUntraced)
	wall, cpu = time.Since(t0), cpuTime()-c0
	for _, r := range warm {
		if r.err != nil {
			return wall, cpu, fmt.Errorf("warm-up session %d: %w", r.idx, r.err)
		}
	}
	return wall, cpu, nil
}

func (b *bench) tearDown() error {
	if b.rig == nil {
		return nil
	}
	err := b.rig.stop()
	b.rig = nil
	return err
}

// cpuTime is the process's CPU time, user and system, over all threads. On a
// virtual machine the kernel does not charge hypervisor steal to it.
func cpuTime() time.Duration { return getUsage().cpu }

// usage is the process's CPU time and peak resident set.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // KiB
}

func getUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSS: int64(ru.Maxrss)}
}

// fleetRig is an in-process fleet: shards (difftestd servers) and a router
// in front of them, all on Unix sockets under dir.
type fleetRig struct {
	addr    string
	router  *fleet.Router
	servers []*transport.Server
	opened  []*atomic.Uint64 // sessions each shard opened
	done    []chan struct{}  // closed when each Serve returns
}

func startFleet(dir string, shards int, newSession transport.NewSessionFunc) (rig *fleetRig, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rig = &fleetRig{}
	defer func() {
		if err != nil {
			rig.stop()
		}
	}()
	serve := func(spec string, srv func(transport.FrameListener) error) error {
		l, err := transport.Listen(spec)
		if err != nil {
			return err
		}
		done := make(chan struct{})
		rig.done = append(rig.done, done)
		go func() {
			defer close(done)
			srv(l)
		}()
		return nil
	}
	var specs []string
	for i := 0; i < shards; i++ {
		n := &atomic.Uint64{}
		srv := transport.NewServer(transport.ServerConfig{NewSession: func(h transport.Hello) (transport.SessionChecker, error) {
			n.Add(1)
			return newSession(h)
		}})
		rig.servers = append(rig.servers, srv)
		rig.opened = append(rig.opened, n)
		spec := "unix:" + filepath.Join(dir, fmt.Sprintf("shard%d.sock", i))
		if err := serve(spec, srv.Serve); err != nil {
			return rig, err
		}
		specs = append(specs, spec)
	}
	r, err := fleet.NewRouter(fleet.Config{Shards: specs})
	if err != nil {
		return rig, err
	}
	rig.router = r
	rig.addr = "unix:" + filepath.Join(dir, "router.sock")
	return rig, serve(rig.addr, r.Serve)
}

// stop shuts the router and the shards down and waits for every server
// goroutine to return.
func (f *fleetRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if f.router != nil {
		errs = append(errs, f.router.Shutdown(ctx))
	}
	for _, s := range f.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	for _, d := range f.done {
		<-d
	}
	return errors.Join(errs...)
}

// busiestShare is the largest share of sessions one shard opened.
func (f *fleetRig) busiestShare() float64 {
	var total, most uint64
	for _, n := range f.opened {
		v := n.Load()
		total += v
		most = max(most, v)
	}
	return ratio(float64(most), float64(total))
}
