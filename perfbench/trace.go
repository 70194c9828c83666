package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/cosim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Lanes of one traced session. Each lane is written by a single goroutine
// while the session runs: the client, the pipeline's producer and consumer
// stages, and the shard's session handler.
const (
	laneClient = iota
	laneProducer
	laneConsumer
	laneShard
	numLanes
)

var laneNames = [numLanes]string{"client", "producer", "consumer", "shard"}

// Root span names. A root's self time is not a layer's: "session" is the
// benchmark's own glue between layer calls (the unaccounted share), and
// "shard.session" is the shard waiting for the client's next frame.
const (
	rootSession = "session"
	rootShard   = "shard.session"
)

// spanRef names a span by lane and index; lane -1 means no parent.
type spanRef struct{ lane, idx int32 }

var noParent = spanRef{-1, -1}

// span is one timed call into a layer. Times are nanoseconds since the
// session's trace epoch; end is 0 while the call is open.
type span struct {
	name       string
	start, end int64
	parent     spanRef
}

// lane records the spans of one goroutine. Calls nest: begin pushes, end
// pops, and a span's parent is the innermost open span of its lane, or the
// lane's base for its outermost spans.
type lane struct {
	id    int32
	t0    time.Time
	base  spanRef
	spans []span
	stack []int32
}

func (l *lane) now() int64 { return int64(time.Since(l.t0)) }

func (l *lane) begin(name string) {
	p := l.base
	if n := len(l.stack); n > 0 {
		p = spanRef{l.id, l.stack[n-1]}
	}
	l.stack = append(l.stack, int32(len(l.spans)))
	l.spans = append(l.spans, span{name: name, start: l.now(), parent: p})
}

func (l *lane) end() {
	n := len(l.stack) - 1
	l.spans[l.stack[n]].end = l.now()
	l.stack = l.stack[:n]
}

// top is the innermost open span, the parent for another lane's calls.
func (l *lane) top() spanRef { return spanRef{l.id, l.stack[len(l.stack)-1]} }

// counts are what a traced session counted at the same call sites it timed.
type counts struct {
	instrs            uint64
	events            uint64 // checker.Process calls
	toRecords         uint64 // wire.ToRecord calls
	desquashed        uint64 // squash.Desquasher.Process calls
	unpacked          uint64 // batch.Unpacker.AddPacket calls
	frames            uint64 // transport.Client.SendPacket calls
	tokenStalls       uint64
	fusedInstrs       uint64
	shortWindows      uint64 // fusion windows closed before MaxFuse
	replays, replayed uint64
	wireBytes         uint64
	packetUtil        float64
	shardSessions     uint64 // shard-side sessions seen (remote only)
	dialToFinishNs    int64  // client: start of Dial to end of Finish
	shardLifetimeNs   int64  // shard: NewSession start to Finish end
}

// sessTrace holds one traced session's spans and counts.
type sessTrace struct {
	key   int
	t0    time.Time
	lanes [numLanes]*lane
	c     counts
	// shardMu orders the shard lane's writes (server goroutine) before the
	// client's read of them after Finish returns.
	shardMu sync.Mutex
}

func newSessTrace(key int) *sessTrace {
	st := &sessTrace{key: key, t0: time.Now()}
	for i := range st.lanes {
		st.lanes[i] = &lane{id: int32(i), t0: st.t0, base: noParent}
	}
	return st
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals, so concurrent children (producer and consumer
// under one pipeline run) are not subtracted twice.
func (st *sessTrace) selfTimes() map[spanRef]int64 {
	children := map[spanRef][]interval{}
	for _, l := range st.lanes {
		for _, s := range l.spans {
			if s.parent != noParent && s.end > 0 {
				children[s.parent] = append(children[s.parent], interval{s.start, s.end})
			}
		}
	}
	self := map[spanRef]int64{}
	for li, l := range st.lanes {
		for i, s := range l.spans {
			if s.end == 0 {
				continue
			}
			ref := spanRef{int32(li), int32(i)}
			self[ref] = s.end - s.start - unionLen(children[ref], s.start, s.end)
		}
	}
	return self
}

// ledger accumulates span self times and counts over many traced sessions.
type ledger struct {
	sessions int
	selfNs   map[string]int64 // by span name
	calls    map[string]int64 // by span name
	wallNs   int64            // sum of the client roots' durations
	c        counts
}

func newLedger() *ledger {
	return &ledger{selfNs: map[string]int64{}, calls: map[string]int64{}}
}

func (lg *ledger) add(st *sessTrace) {
	lg.sessions++
	self := st.selfTimes()
	for ref, ns := range self {
		s := st.lanes[ref.lane].spans[ref.idx]
		lg.selfNs[s.name] += ns
		lg.calls[s.name]++
		if s.name == rootSession {
			lg.wallNs += s.end - s.start
		}
	}
	c := &lg.c
	c.instrs += st.c.instrs
	c.events += st.c.events
	c.toRecords += st.c.toRecords
	c.desquashed += st.c.desquashed
	c.unpacked += st.c.unpacked
	c.frames += st.c.frames
	c.tokenStalls += st.c.tokenStalls
	c.fusedInstrs += st.c.fusedInstrs
	c.shortWindows += st.c.shortWindows
	c.replays += st.c.replays
	c.replayed += st.c.replayed
	c.wireBytes += st.c.wireBytes
	c.packetUtil += st.c.packetUtil
	c.shardSessions += st.c.shardSessions
	c.dialToFinishNs += st.c.dialToFinishNs
	c.shardLifetimeNs += st.c.shardLifetimeNs
}

// layerOf maps a span name to its layer (module) name, or "" for roots.
func layerOf(name string) string {
	if name == rootSession || name == rootShard {
		return ""
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelf sums self time by layer.
func (lg *ledger) layerSelf() map[string]int64 {
	out := map[string]int64{}
	for name, ns := range lg.selfNs {
		if l := layerOf(name); l != "" {
			out[l] += ns
		}
	}
	return out
}

// unaccountedShare is the share of traced session wall time that no layer
// call covers: the benchmark's glue between calls.
func (lg *ledger) unaccountedShare() float64 {
	return ratio(float64(lg.selfNs[rootSession]), float64(lg.wallNs))
}

// writeChromeTrace writes st's spans in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete event per span, one thread per
// lane, with the parent span in args.
func writeChromeTrace(path string, st *sessTrace, env map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	fmt.Fprintf(w, "{\"otherData\":")
	if err := json.NewEncoder(w).Encode(env); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, ",\"traceEvents\":[\n")
	first := true
	emit := func(e ev) error {
		if !first {
			w.WriteString(",\n")
		}
		first = false
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}
	for li, l := range st.lanes {
		if len(l.spans) == 0 {
			continue
		}
		if err := emit(ev{Name: "thread_name", Ph: "M", Pid: st.key, Tid: int32(li),
			Args: map[string]any{"name": laneNames[li]}}); err != nil {
			f.Close()
			return err
		}
		for _, s := range l.spans {
			if s.end == 0 {
				continue
			}
			e := ev{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: st.key, Tid: int32(li)}
			if s.parent != noParent {
				e.Args = map[string]any{"parent": fmt.Sprintf("%s/%d", laneNames[s.parent.lane], s.parent.idx)}
			}
			if err := emit(e); err != nil {
				f.Close()
				return err
			}
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shardTracer wraps the shard-side session checker of traced sessions. A
// traced client registers its session under the workload seed before it
// dials; the shard's NewSession claims the registration and times every call
// into the session checker on the session's shard lane. Sessions nobody
// registered run unwrapped.
type shardTracer struct {
	mu      sync.Mutex
	pending map[int64][]*sessTrace
}

func newShardTracer() *shardTracer {
	return &shardTracer{pending: map[int64][]*sessTrace{}}
}

func (t *shardTracer) register(seed int64, st *sessTrace) {
	t.mu.Lock()
	t.pending[seed] = append(t.pending[seed], st)
	t.mu.Unlock()
}

func (t *shardTracer) claim(seed int64) *sessTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.pending[seed]
	if len(q) == 0 {
		return nil
	}
	st := q[0]
	if len(q) == 1 {
		delete(t.pending, seed)
	} else {
		t.pending[seed] = q[1:]
	}
	return st
}

// newSession is the shards' transport.NewSessionFunc.
func (t *shardTracer) newSession(h transport.Hello) (transport.SessionChecker, error) {
	st := t.claim(h.Seed)
	if st == nil {
		return cosim.NewSession(h)
	}
	st.shardMu.Lock()
	defer st.shardMu.Unlock()
	l := st.lanes[laneShard]
	l.begin(rootShard)
	l.begin("cosim.new_session")
	inner, err := cosim.NewSession(h)
	l.end()
	if err != nil {
		l.end()
		return nil, err
	}
	st.c.shardSessions++
	return &timedSession{inner: inner, st: st}, nil
}

// timedSession times the calls the shard makes into one session checker.
type timedSession struct {
	inner transport.SessionChecker
	st    *sessTrace
}

func (s *timedSession) timed(name string, f func()) {
	s.st.shardMu.Lock()
	defer s.st.shardMu.Unlock()
	l := s.st.lanes[laneShard]
	l.begin(name)
	f()
	l.end()
}

func (s *timedSession) Packet(buf []byte) (m *checker.Mismatch, err error) {
	s.timed("cosim.session_packet", func() { m, err = s.inner.Packet(buf) })
	return m, err
}

func (s *timedSession) Items(items []wire.Item) (m *checker.Mismatch, err error) {
	s.timed("cosim.session_items", func() { m, err = s.inner.Items(items) })
	return m, err
}

func (s *timedSession) Finish() (f transport.Final, err error) {
	s.timed("cosim.session_finish", func() { f, err = s.inner.Finish() })
	s.st.shardMu.Lock()
	l := s.st.lanes[laneShard]
	l.end() // the shard.session root
	root := l.spans[0]
	s.st.c.shardLifetimeNs = root.end - root.start
	s.st.shardMu.Unlock()
	return f, err
}

func (s *timedSession) Events() uint64 { return s.inner.Events() }

// CoverageSnapshot keeps the verdict's coverage signal, as unwrapped.
func (s *timedSession) CoverageSnapshot() *checker.Coverage {
	if cr, ok := s.inner.(transport.CoverageReporter); ok {
		return cr.CoverageSnapshot()
	}
	return nil
}

// allocSites maps a public call to the per-layer allocation metric it feeds.
// An allocation is charged to the innermost of these calls on its stack.
var allocSites = map[string]string{
	"repro/internal/dut.(*DUT).StepCycle":        "dut",
	"repro/internal/checker.(*Checker).Process":  "checker",
	"repro/internal/batch.(*Unpacker).AddPacket": "batch.unpack",
}

// allocProfile snapshots the heap profile's cumulative allocated bytes per
// stack. Run it with runtime.MemProfileRate = 1, so every allocation is
// recorded, and diff two snapshots.
type allocProfile map[[32]uintptr]int64

func snapshotAllocs() allocProfile {
	// Two collections publish every allocation made before the call.
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	p := allocProfile{}
	for _, r := range recs {
		p[r.Stack0] += r.AllocBytes
	}
	return p
}

// attribute charges the bytes allocated between before and after to the
// innermost allocSites call on each allocating stack.
func attribute(before, after allocProfile) map[string]int64 {
	out := map[string]int64{}
	for stk, bytes := range after {
		d := bytes - before[stk]
		if d <= 0 {
			continue
		}
		var pcs []uintptr
		for _, pc := range stk {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		frames := runtime.CallersFrames(pcs)
		for {
			fr, more := frames.Next()
			if site, ok := allocSites[fr.Function]; ok {
				out[site] += d
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
