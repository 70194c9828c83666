package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cosim"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // printed after the unit, e.g. the sample count
}

// report is a run's result: its metrics and its session accounting.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	errs      []string // the first few failures, for the log
	log       []string // comment lines printed before the metrics
}

func (rp *report) add(name, unit string, v float64, note string) {
	rp.metrics = append(rp.metrics, metric{name: name, unit: unit, value: v, note: note})
}

// count tallies results into the report.
func (rp *report) count(rs []sessionResult) {
	for _, r := range rs {
		rp.attempted++
		if r.err != nil {
			rp.failed++
			if len(rp.errs) < 5 {
				rp.errs = append(rp.errs, fmt.Sprintf("session %d: %v", r.idx, r.err))
			}
		}
	}
}

func (rp *report) fail(err error) {
	rp.failed++
	rp.errs = append(rp.errs, err.Error())
}

// endToEnd measures the end-to-end metrics with tracing off: every session is
// a plain cosim.Run.
func (b *bench) endToEnd() (*report, error) {
	rp := &report{}
	var setups, setupCPUs []float64
	for rep := 0; rep < setupReps; rep++ {
		d, c, err := b.setUp(rep, cosim.NewSession)
		if err != nil {
			b.tearDown()
			return nil, err
		}
		setups = append(setups, d.Seconds())
		setupCPUs = append(setupCPUs, c.Seconds())
		if rep < setupReps-1 {
			if err := b.tearDown(); err != nil {
				return nil, err
			}
		}
	}

	w, cfg := b.cfg.w, b.cfg
	window := time.Duration(cfg.seconds * float64(time.Second))
	stop := func(i int, el time.Duration) bool {
		return el >= window && i >= cfg.minSessions && i%w.round == 0
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0 := getUsage()
	rs, wall, _ := b.closedLoop(0, stop, func(i int) sessionResult { return b.runCosim(i, cfg.tamper) })
	u1 := getUsage()
	runtime.ReadMemStats(&ms1)
	if b.rig != nil && b.rig.router.Refused() != 0 {
		rp.fail(fmt.Errorf("the router refused %d sessions", b.rig.router.Refused()))
	}
	if err := b.tearDown(); err != nil {
		rp.fail(fmt.Errorf("fleet shutdown: %w", err))
	}

	b.settleUndetected(rs)
	b.verifyAgainstModeled(rs)
	rp.count(rs)
	var instrs uint64
	var durs []float64
	for _, r := range rs {
		durs = append(durs, r.dur.Seconds())
		if r.err == nil {
			instrs += r.out.Instrs
		}
	}
	minstr := float64(instrs) / 1e6
	var cpus []float64
	for _, r := range rs {
		cpus = append(cpus, r.cpu.Seconds())
	}
	rp.add("cpu_s_per_minstr", "cpu-s/Minstr", ratio((u1.cpu-u0.cpu).Seconds(), minstr),
		fmt.Sprintf("(%d instrs, %d clients)", instrs, w.clients))
	rp.add("session_cpu_s_p50", "cpu-s", median(cpus), fmt.Sprintf("(n=%d)", len(cpus)))
	t, ok := tailOf(cpus)
	if !ok {
		return nil, fmt.Errorf("%d sessions are too few for a tail percentile", len(cpus))
	}
	rp.add("session_cpu_s_tail", "cpu-s", t.Value, fmt.Sprintf("(p%g, n=%d, %d beyond)", t.P, t.N, t.Beyond))
	rp.add("setup_s", "s", median(setupCPUs), fmt.Sprintf("(CPU time, median of %d set-ups)", len(setupCPUs)))
	rp.add("alloc_bytes_per_instr", "B/instr", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(instrs)), "")
	rp.add("peak_rss_mb", "MiB", float64(u1.maxRSS)/1024, "")
	// Wall-clock figures: what a user waits for, but on a shared virtual
	// machine they move with the neighbours' load, so they are logged and
	// not gated (README.md, "Noise").
	wt, _ := tailOf(durs)
	rp.log = append(rp.log,
		fmt.Sprintf("wall: instrs_per_s %.6g instr/s (%d instrs in %.3f s)", float64(instrs)/wall.Seconds(), instrs, wall.Seconds()),
		fmt.Sprintf("wall: session_s_p50 %.6g s, session_s_tail %.6g s (p%g, n=%d, %d beyond)", median(durs), wt.Value, wt.P, wt.N, wt.Beyond),
		fmt.Sprintf("wall: setup %.6g s (median of %d set-ups)", median(setups), len(setups)))
	rp.add("failed_share", "fraction", ratio(float64(rp.failed), float64(rp.attempted)),
		fmt.Sprintf("(%d of %d sessions)", rp.failed, rp.attempted))
	return rp, nil
}

// maxUnaccounted bounds the share of traced session wall time that may fall
// outside every layer span; above it the trace no longer explains the run.
const maxUnaccounted = 0.10

// traced measures the per-layer metrics. Untraced and traced phases
// alternate (U, T, U, T) so slow drift of the machine hits both; the traced
// phases run composed sessions that record spans, the untraced ones plain
// cosim.Run. A final traced session runs with every allocation profiled.
func (b *bench) traced(env map[string]string) (*report, error) {
	rp := &report{}
	b.tracer = newShardTracer()
	if _, _, err := b.setUp(0, b.tracer.newSession); err != nil {
		b.tearDown()
		return nil, err
	}
	phase := time.Duration(b.cfg.seconds * float64(time.Second) / 4)
	stop := func(_ int, el time.Duration) bool { return el >= phase }
	lg := newLedger()
	var mu sync.Mutex // guards lg and last against the workload's clients
	var last *sessTrace
	runTraced := func(i int) sessionResult {
		r, st := b.runTraced(i)
		if r.err == nil {
			mu.Lock()
			lg.add(st)
			last = st
			mu.Unlock()
		}
		return r
	}
	var us, ts []sessionResult
	nextU, nextT := 0, 0
	for ph := 0; ph < 4; ph++ {
		var rs []sessionResult
		if ph%2 == 0 {
			rs, _, nextU = b.closedLoop(nextU, stop, b.runUntraced)
			us = append(us, rs...)
		} else {
			rs, _, nextT = b.closedLoop(nextT, stop, runTraced)
			ts = append(ts, rs...)
		}
	}

	allocRes, allocs, allocCounts := b.allocPass()
	busiest := 0.0
	if b.rig != nil {
		busiest = b.rig.busiestShare()
		if n := b.rig.router.Refused(); n != 0 {
			rp.fail(fmt.Errorf("the router refused %d sessions", n))
		}
	}
	if err := b.tearDown(); err != nil {
		rp.fail(fmt.Errorf("fleet shutdown: %w", err))
	}

	checked := append(ts[:len(ts):len(ts)], allocRes)
	b.settleUndetected(us)
	b.settleUndetected(checked)
	b.verifyAgainstModeled(us)
	b.verifyTraced(checked, us)
	rp.count(us)
	rp.count(checked)

	if last != nil {
		dir := filepath.Join(filepath.Dir(b.cfg.dir), "trace")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.cfg.w.name, b.cfg.seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			if err := writeChromeTrace(path, last, env); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: span dump: %v\n", err)
			}
		}
	}
	rp.log = layerTable(lg)
	if u := lg.unaccountedShare(); u > maxUnaccounted {
		rp.fail(fmt.Errorf("layer spans leave %.1f%% of traced wall time unaccounted (bound %.0f%%)",
			100*u, 100*maxUnaccounted))
	}
	b.layerMetrics(rp, lg, us, ts, allocs, allocCounts, busiest)
	return rp, nil
}

// allocPass runs session 0 traced with every allocation recorded and charges
// the bytes to the calls in allocSites.
func (b *bench) allocPass() (sessionResult, map[string]int64, counts) {
	rate := runtime.MemProfileRate
	before := snapshotAllocs()
	runtime.MemProfileRate = 1
	r, st := b.runTraced(0)
	runtime.MemProfileRate = rate
	after := snapshotAllocs()
	return r, attribute(before, after), st.c
}

// verifyTraced checks each traced session against the untraced cosim.Run of
// the same session: same verdict, same diagnosis, same simulated statistics.
// Untraced runs the phases did not make are made here.
func (b *bench) verifyTraced(ts, us []sessionResult) {
	byKey := map[int]outcome{}
	for _, u := range us {
		if u.err == nil {
			byKey[u.key] = u.out
		}
	}
	for j := range ts {
		t := &ts[j]
		if t.err != nil {
			continue
		}
		want, ok := byKey[t.key]
		if !ok {
			u := b.runUntraced(t.idx)
			if u.err != nil {
				t.err = fmt.Errorf("untraced counterpart: %w", u.err)
				continue
			}
			want, byKey[t.key] = u.out, u.out
		}
		t.err = sameSimulation(t.out, want, "traced vs untraced run")
	}
}

// traceOverhead compares traced with untraced throughput over the session
// keys both ran, weighting each key by its instructions: (traced − untraced)
// instrs/s, divided by untraced.
func traceOverhead(us, ts []sessionResult) float64 {
	type acc struct {
		n   int
		sum time.Duration
	}
	mean := func(rs []sessionResult) (map[int]acc, map[int]uint64) {
		m, in := map[int]acc{}, map[int]uint64{}
		for _, r := range rs {
			if r.err != nil {
				continue
			}
			a := m[r.key]
			a.n++
			a.sum += r.dur
			m[r.key] = a
			in[r.key] = r.out.Instrs
		}
		return m, in
	}
	mu, instrs := mean(us)
	mt, _ := mean(ts)
	var tu, tt float64
	var n uint64
	for k, a := range mu {
		b, ok := mt[k]
		if !ok {
			continue
		}
		tu += a.sum.Seconds() / float64(a.n)
		tt += b.sum.Seconds() / float64(b.n)
		n += instrs[k]
	}
	if tu == 0 || tt == 0 {
		return 0
	}
	ipsU, ipsT := float64(n)/tu, float64(n)/tt
	return (ipsT - ipsU) / ipsU
}

// pipelineTotals sums the executed pipeline's own measurements over the
// untraced sessions.
type pipelineTotals struct {
	wall, prod, cons, overlap, idle time.Duration
	transfers, backpressure         uint64
	queueSum                        float64
}

func sumPipeline(us []sessionResult) pipelineTotals {
	var t pipelineTotals
	for _, r := range us {
		m := r.exec
		if r.err != nil || m == nil {
			continue
		}
		t.wall += m.Wall
		t.prod += m.ProducerBusy
		t.cons += m.ConsumerBusy
		t.overlap += m.Overlap()
		t.idle += max(0, m.Wall-m.ProducerBusy-m.ConsumerBusy)
		t.transfers += m.Transfers
		t.backpressure += m.Backpressure
		t.queueSum += m.MeanQueueDepth() * float64(m.Transfers)
	}
	return t
}

// layerMetrics derives the per-layer metrics from the traced sessions'
// ledger, the untraced sessions' pipeline measurements and the allocation
// pass.
func (b *bench) layerMetrics(rp *report, lg *ledger, us, ts []sessionResult,
	allocs map[string]int64, ac counts, busiest float64) {
	c := lg.c
	in := float64(c.instrs)
	perInstr := func(span string) float64 { return ratio(float64(lg.selfNs[span]), in) }
	perCall := func(span string) float64 {
		return ratio(float64(lg.selfNs[span]), float64(lg.calls[span]))
	}
	pt := sumPipeline(us)

	rp.add("dut.step_ns_per_instr", "ns/instr", perInstr("dut.step"), "")
	rp.add("dut.alloc_bytes_per_instr", "B/instr", ratio(float64(allocs["dut"]), float64(ac.instrs)), "(allocation pass)")
	rp.add("workload.generate_s", "s", perCall("workload.generate")/1e9, "")
	rp.add("wire.from_records_ns_per_instr", "ns/instr", perInstr("wire.from_records"), "")
	rp.add("wire.to_record_ns_per_event", "ns/event", ratio(float64(lg.selfNs["wire.to_record"]), float64(c.toRecords)), "")
	rp.add("checker.process_ns_per_event", "ns/event", ratio(float64(lg.selfNs["checker.process"]), float64(c.events)), "")
	rp.add("checker.alloc_bytes_per_event", "B/event", ratio(float64(allocs["checker"]), float64(ac.events)), "(allocation pass)")
	rp.add("checker.events_per_instr", "events/instr", ratio(float64(c.events), in), "")
	rp.add("batch.pack_ns_per_instr", "ns/instr", perInstr("batch.pack"), "")
	rp.add("batch.unpack_ns_per_instr", "ns/instr", perInstr("batch.unpack"), "(client side only)")
	packets := ac.unpacked + ac.frames // local unpacks, or frames a shard unpacks
	rp.add("batch.unpack_alloc_bytes_per_packet", "B/packet", ratio(float64(allocs["batch.unpack"]), float64(packets)), "(allocation pass)")
	rp.add("batch.packet_utilization", "share", ratio(c.packetUtil, float64(lg.sessions)), "")
	rp.add("batch.wire_bytes_per_instr", "B/instr", ratio(float64(c.wireBytes), in), "")
	rp.add("squash.fuse_ns_per_instr", "ns/instr", perInstr("squash.fuse"), "")
	rp.add("squash.desquash_ns_per_item", "ns/item", ratio(float64(lg.selfNs["squash.desquash"]), float64(c.desquashed)), "")
	rp.add("squash.fused_share", "share", ratio(float64(c.fusedInstrs), in), "")
	rp.add("squash.breaks_per_kinstr", "1/kinstr", 1000*ratio(float64(c.shortWindows), in), "")
	rp.add("replay.add_ns_per_instr", "ns/instr", perInstr("replay.add"), "")
	rp.add("replay.run_ms", "ms", perCall("replay.run")/1e6, fmt.Sprintf("(%d replays)", c.replays))
	rp.add("replay.replayed_records", "records", ratio(float64(c.replayed), float64(c.replays)), "")
	rp.add("comm.send_ns_per_instr", "ns/instr", perInstr("comm.send"), "")
	wall := pt.wall.Seconds()
	rp.add("pipeline.producer_busy_share", "share", ratio(pt.prod.Seconds(), wall), "(untraced sessions)")
	rp.add("pipeline.consumer_busy_share", "share", ratio(pt.cons.Seconds(), wall), "(untraced sessions)")
	rp.add("pipeline.overlap_share", "share", ratio(pt.overlap.Seconds(), wall), "(untraced sessions)")
	rp.add("pipeline.handoff_wait_ns_per_transfer", "ns/transfer", ratio(float64(pt.idle), float64(pt.transfers)), "(untraced sessions)")
	rp.add("pipeline.backpressure_per_ktransfer", "1/ktransfer", 1000*ratio(float64(pt.backpressure), float64(pt.transfers)), "(untraced sessions)")
	rp.add("pipeline.queue_mean", "transfers", ratio(pt.queueSum, float64(pt.transfers)), "(untraced sessions)")
	rp.add("transport.send_ns_per_frame", "ns/frame", perCall("transport.send"), "")
	rp.add("transport.finish_ms", "ms", perCall("transport.finish")/1e6, "")
	rp.add("transport.token_stalls_per_kframe", "1/kframe", 1000*ratio(float64(c.tokenStalls), float64(c.frames)), "")
	rp.add("transport.frames_per_kinstr", "1/kinstr", 1000*ratio(float64(c.frames), in), "")
	rp.add("cosim.session_packet_ns_per_instr", "ns/instr", perInstr("cosim.session_packet"), "(shard side)")
	rp.add("cosim.session_finish_ms", "ms", perCall("cosim.session_finish")/1e6, "(shard side)")
	rp.add("fleet.hop_ms_per_session", "ms", ratio(float64(c.dialToFinishNs-c.shardLifetimeNs), float64(c.shardSessions))/1e6, "")
	rp.add("fleet.busiest_shard_share", "share", busiest, "")
	rp.add("trace.overhead_share", "share", traceOverhead(us, ts), "")
	rp.add("trace.unaccounted_share", "share", lg.unaccountedShare(), fmt.Sprintf("(%d traced sessions)", lg.sessions))
}

// layerTable renders each layer's self time against the traced wall time.
func layerTable(lg *ledger) []string {
	self := lg.layerSelf()
	out := []string{fmt.Sprintf("layer self time over %d traced sessions (%.3f s wall, %d instrs)",
		lg.sessions, float64(lg.wallNs)/1e9, lg.c.instrs)}
	for _, l := range sortedKeys(self) {
		out = append(out, fmt.Sprintf("  %-11s %10.3f ms  %6.1f%% of wall  %9.1f ns/instr", l,
			float64(self[l])/1e6, 100*ratio(float64(self[l]), float64(lg.wallNs)),
			ratio(float64(self[l]), float64(lg.c.instrs))))
	}
	return append(out, fmt.Sprintf("  %-11s %10.3f ms  %6.1f%% of wall  (benchmark glue between calls)", "unaccounted",
		float64(lg.selfNs[rootSession])/1e6, 100*lg.unaccountedShare()))
}
