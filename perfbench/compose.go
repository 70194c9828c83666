package main

import (
	"errors"
	"fmt"

	"repro/internal/batch"
	"repro/internal/checker"
	"repro/internal/comm"
	"repro/internal/cosim"
	"repro/internal/dut"
	"repro/internal/event"
	"repro/internal/pipeline"
	"repro/internal/replay"
	"repro/internal/squash"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// composed runs one session the way cosim.Run does, built from the same
// public calls, with every call into a layer recorded as a span. Only the
// meta-guided Batch configurations (EB, EBIN, EBINSD) are composed; those are
// the ones the workloads run.
//
// The composition must stay faithful: a traced session's verdict and
// simulated statistics are compared with the untraced cosim.Run of the same
// Params, and any difference fails the run.
type composed struct {
	p   cosim.Params
	opt cosim.Options
	st  *sessTrace

	d        *dut.DUT
	chk      *checker.Checker // nil on remote sessions
	link     *comm.Link
	fusers   []*squash.Fuser
	rbuf     *replay.Buffer
	desq     *squash.Desquasher
	rctls    []*replay.Controller
	maxFuse  uint64
	packer   *batch.Packer
	unpacker *batch.Unpacker
	// sw is the lane running the software side: the client lane on the
	// sequential loop, the consumer lane under the pipeline.
	sw   *lane
	recs []event.Record // decoded records of one batch, reused

	pending  []batch.Packet
	hwDone   bool
	stop     bool
	mismatch *checker.Mismatch
	rep      *replay.Report
	out      outcome
}

var errNotComposable = errors.New("only meta-guided Batch configurations are composed")

// runComposed runs p as a traced session recorded into st.
func runComposed(p cosim.Params, st *sessTrace) (outcome, error) {
	if !p.Opt.Batch || p.Opt.FixedOffset {
		return outcome{}, errNotComposable
	}
	if p.MaxCycles == 0 {
		p.MaxCycles = 100_000_000
	}
	c := &composed{p: p, opt: p.Opt, st: st}
	ln := st.lanes[laneClient]
	ln.begin(rootSession)
	err := c.run(ln)
	ln.end()
	if err != nil {
		return outcome{}, err
	}
	return c.out, nil
}

func (c *composed) run(ln *lane) error {
	p := c.p
	ln.begin("workload.generate")
	prog := workload.Generate(p.Workload, p.DUT.Cores, p.Seed)
	ln.end()
	ln.begin("dut.new")
	c.d = dut.New(p.DUT, prog.Image, prog.Entries, p.Hooks)
	ln.end()
	remote := p.RemoteAddr != ""
	if !remote {
		ln.begin("checker.new")
		c.chk = checker.New(prog.Image, prog.Entries, p.DUT.Cores)
		ln.end()
	}
	dutHz := p.Platform.DUTOnlyHz(p.DUT.GatesM)
	c.link = comm.NewLink(p.Platform, dutHz, c.opt.NonBlocking)
	if c.opt.Squash {
		scfg := squash.DefaultConfig()
		scfg.CoupleOrder = c.opt.CoupleOrder
		if c.opt.MaxFuse > 0 {
			scfg.MaxFuse = c.opt.MaxFuse
		}
		c.maxFuse = uint64(scfg.MaxFuse)
		for i := 0; i < p.DUT.Cores; i++ {
			c.fusers = append(c.fusers, squash.NewFuser(scfg, uint8(i)))
		}
		c.rbuf = replay.NewBuffer(p.ReplayBufCap)
		if !remote {
			c.desq = squash.NewDesquasher(c.chk, p.DUT.EnabledKinds())
			for _, cc := range c.chk.Cores {
				c.rctls = append(c.rctls, replay.NewController(cc, c.rbuf))
			}
			c.desq.OnWindow = func(core uint8, fc wire.FusedCommit) {
				c.sw.begin("replay.checkpoint")
				c.rctls[core].Checkpoint(fc.StartToken)
				c.sw.end()
			}
		}
	}
	c.packer = batch.NewPacker(p.Platform.PacketBytes)
	c.unpacker = &batch.Unpacker{}

	var err error
	switch {
	case remote:
		err = c.loopRemote(ln)
	case c.opt.Executed:
		err = c.loopExecuted(ln)
	default:
		c.sw = ln
		err = c.loopModeled(ln)
	}
	if err != nil {
		return err
	}
	c.finish()
	return nil
}

// hwCycle is the hardware side of one cycle: DUT step, modeled link clock,
// and either plain item conversion or Squash fusion with replay buffering.
func (c *composed) hwCycle(l *lane) ([]wire.Item, bool) {
	l.begin("dut.step")
	recs, done := c.d.StepCycle()
	l.end()
	// One add: a span would time the clock, not the call.
	c.link.AdvanceCycle()
	if len(recs) == 0 {
		return nil, done
	}
	if !c.opt.Squash {
		l.begin("wire.from_records")
		items := wire.FromRecords(recs)
		l.end()
		return items, done
	}
	l.begin("replay.add")
	startTok := c.rbuf.Add(recs)
	l.end()
	// The per-core split is cosim's own code, replicated here; its span
	// charges it to the cosim layer.
	l.begin("cosim.hardware_side")
	var items []wire.Item
	for core := 0; core < c.p.DUT.Cores; core++ {
		var coreRecs []event.Record
		var toks []uint64
		for i, rec := range recs {
			if int(rec.Core) == core {
				coreRecs = append(coreRecs, rec)
				toks = append(toks, startTok+uint64(i))
			}
		}
		if len(coreRecs) > 0 {
			l.begin("squash.fuse")
			out := c.fusers[core].Cycle(coreRecs, toks)
			l.end()
			c.countWindows(out)
			items = append(items, out...)
		}
	}
	l.end()
	return items, done
}

// fuserTail flushes every fuser at the end of the DUT's run.
func (c *composed) fuserTail(l *lane) []wire.Item {
	var tail []wire.Item
	for _, f := range c.fusers {
		l.begin("squash.fuse")
		tail = append(tail, f.Flush()...)
		l.end()
	}
	c.countWindows(tail)
	return tail
}

// countWindows counts the fusion windows in items that closed before
// reaching the window size: fusion broken by a trap or the end of the run.
func (c *composed) countWindows(items []wire.Item) {
	for _, it := range items {
		if !it.IsFused() {
			continue
		}
		if fc, err := wire.DecodeFused(it); err == nil && fc.Count < c.maxFuse {
			c.st.c.shortWindows++
		}
	}
}

func (c *composed) pack(l *lane, items []wire.Item, flush bool) []batch.Packet {
	l.begin("batch.pack")
	pkts := c.packer.AddCycle(items)
	if flush {
		pkts = append(pkts, c.packer.Flush()...)
	}
	l.end()
	return pkts
}

func (c *composed) send(l *lane, bytes, events, instrs int) {
	l.begin("comm.send")
	c.link.Send(bytes, events, instrs)
	l.end()
}

// software checks items in order and stops at the first mismatch. Per-item
// calls are timed as one span per batch of items: a span per call would cost
// more than many of the calls it times.
func (c *composed) software(l *lane, items []wire.Item) (*checker.Mismatch, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if c.opt.Squash {
		var m *checker.Mismatch
		l.begin("squash.desquash")
		for _, it := range items {
			c.st.c.desquashed++
			if m = c.desq.Process(it); m != nil {
				break
			}
		}
		l.end()
		return m, nil
	}
	// Decoding every item before checking any keeps the outcome: a decode
	// error counts only if no earlier item mismatched.
	recs := c.recs[:0]
	var decodeErr error
	l.begin("wire.to_record")
	for _, it := range items {
		rec, err := wire.ToRecord(it)
		if err != nil {
			decodeErr = err
			break
		}
		recs = append(recs, rec)
	}
	l.end()
	c.recs = recs
	c.st.c.toRecords += uint64(len(recs))
	var m *checker.Mismatch
	l.begin("checker.process")
	for _, rec := range recs {
		c.st.c.events++
		if m = c.chk.Process(rec); m != nil {
			break
		}
	}
	l.end()
	if m != nil {
		return m, nil
	}
	return nil, decodeErr
}

func (c *composed) unpack(l *lane, pkt batch.Packet) ([]wire.Item, error) {
	l.begin("batch.unpack")
	items, err := c.unpacker.AddPacket(pkt.Buf)
	l.end()
	c.st.c.unpacked++
	pkt.Release()
	return items, err
}

func (c *composed) unpackFlush(l *lane) []wire.Item {
	l.begin("batch.unpack")
	items := c.unpacker.Flush()
	l.end()
	return items
}

// onMismatch stops the session and runs the Replay round trip.
func (c *composed) onMismatch(l *lane, m *checker.Mismatch) {
	c.mismatch = m
	c.stop = true
	if c.opt.Squash && !c.p.DisableReplay && int(m.Core) < len(c.rctls) {
		l.begin("replay.run")
		rep := c.rctls[m.Core].Run(m)
		l.end()
		c.send(l, rep.ReplayedBytes+64, rep.Replayed, 0)
		c.rep = rep
		c.st.c.replays++
		c.st.c.replayed += uint64(rep.Replayed)
	}
}

func releaseAll(pkts []batch.Packet) {
	for i := range pkts {
		pkts[i].Release()
	}
}

// --- sequential (modeled) loop ---

func (c *composed) loopModeled(l *lane) error {
	for cycle := uint64(0); cycle < c.p.MaxCycles && !c.stop; cycle++ {
		items, done := c.hwCycle(l)
		if err := c.transport(l, items, false); err != nil {
			return err
		}
		if done {
			if err := c.flushAll(l); err != nil {
				return err
			}
			c.out.Finished = true
			_, c.out.TrapCode = c.chk.Finished()
			return nil
		}
	}
	if !c.stop {
		return fmt.Errorf("did not finish within %d cycles: %w", c.p.MaxCycles, cosim.ErrCycleLimit)
	}
	return nil
}

// transport packs items, accounts each packet on the modeled link and hands
// it straight to the software side, stopping at the first mismatch.
func (c *composed) transport(l *lane, items []wire.Item, flush bool) error {
	if c.stop {
		return nil
	}
	pkts := c.pack(l, items, flush)
	for i, pkt := range pkts {
		if c.stop {
			releaseAll(pkts[i:])
			return nil
		}
		c.send(l, len(pkt.Buf), pkt.Events, pkt.Instrs)
		rx, err := c.unpack(l, pkt)
		if err != nil {
			releaseAll(pkts[i+1:])
			return err
		}
		m, err := c.software(l, rx)
		if err != nil {
			releaseAll(pkts[i+1:])
			return err
		}
		if m != nil {
			c.onMismatch(l, m)
		}
	}
	if flush && !c.stop {
		m, err := c.software(l, c.unpackFlush(l))
		if err != nil {
			return err
		}
		if m != nil {
			c.onMismatch(l, m)
		}
	}
	return nil
}

func (c *composed) flushAll(l *lane) error {
	if c.opt.Squash {
		for _, f := range c.fusers {
			l.begin("squash.fuse")
			items := f.Flush()
			l.end()
			c.countWindows(items)
			if err := c.transport(l, items, false); err != nil {
				return err
			}
		}
	}
	if err := c.transport(l, nil, true); err != nil {
		return err
	}
	if c.opt.Squash && !c.stop {
		l.begin("squash.desquash")
		m := c.desq.Flush()
		l.end()
		if m != nil {
			c.onMismatch(l, m)
		}
	}
	return nil
}

// --- pipelined loops (executed and remote) ---

// next is the pipeline's producer stage: step the DUT until a cycle yields
// packets, accounting each on the modeled link.
func (c *composed) next() (batch.Packet, bool, error) {
	l := c.st.lanes[laneProducer]
	l.begin("pipeline.produce")
	defer l.end()
	for len(c.pending) == 0 {
		if c.hwDone {
			return batch.Packet{}, false, nil
		}
		if c.d.CycleCount >= c.p.MaxCycles {
			return batch.Packet{}, false, fmt.Errorf("did not finish within %d cycles: %w", c.p.MaxCycles, cosim.ErrCycleLimit)
		}
		items, done := c.hwCycle(l)
		c.pending = c.packSend(l, items, false)
		if done {
			c.hwDone = true
			c.pending = append(c.pending, c.packSend(l, c.fuserTail(l), true)...)
		}
	}
	pkt := c.pending[0]
	c.pending = c.pending[1:]
	return pkt, true, nil
}

func (c *composed) packSend(l *lane, items []wire.Item, flush bool) []batch.Packet {
	pkts := c.pack(l, items, flush)
	for i := range pkts {
		c.send(l, len(pkts[i].Buf), pkts[i].Events, pkts[i].Instrs)
	}
	return pkts
}

func dropPacket(pkt batch.Packet) { pkt.Release() }

func (c *composed) runPipeline(ln *lane, sink pipeline.Sink[batch.Packet]) (*pipeline.Metrics, error) {
	ln.begin("pipeline.run")
	c.st.lanes[laneProducer].base = ln.top()
	c.st.lanes[laneConsumer].base = ln.top()
	m, err := pipeline.Run(c.next, sink, pipeline.Config{
		NonBlocking: c.opt.NonBlocking,
		QueueDepth:  c.p.Platform.QueueDepth,
	}, dropPacket)
	releaseAll(c.pending)
	c.pending = nil
	ln.end()
	return m, err
}

func (c *composed) loopExecuted(ln *lane) error {
	sw := c.st.lanes[laneConsumer]
	c.sw = sw
	var found *checker.Mismatch
	sink := func(pkt batch.Packet) (bool, error) {
		sw.begin("pipeline.consume")
		defer sw.end()
		items, err := c.unpack(sw, pkt)
		if err != nil {
			return false, err
		}
		m, err := c.software(sw, items)
		if m != nil {
			found = m
		}
		return m != nil, err
	}
	if _, err := c.runPipeline(ln, sink); err != nil {
		return err
	}
	// The pipeline has joined: the software side runs on this goroutine.
	c.sw = ln
	if found != nil {
		c.onMismatch(ln, found)
		return nil
	}
	if !c.hwDone {
		return fmt.Errorf("did not finish within %d cycles: %w", c.p.MaxCycles, cosim.ErrCycleLimit)
	}
	m, err := c.software(ln, c.unpackFlush(ln))
	if err != nil {
		return err
	}
	if m == nil && c.opt.Squash {
		ln.begin("squash.desquash")
		m = c.desq.Flush()
		ln.end()
	}
	c.out.Finished = true
	_, c.out.TrapCode = c.chk.Finished()
	if m != nil {
		c.onMismatch(ln, m)
	}
	return nil
}

func (c *composed) hello() transport.Hello {
	p := c.p
	return transport.Hello{
		DUT:          p.DUT.Name,
		Platform:     p.Platform.Name,
		Config:       c.opt.Name(),
		CoupleOrder:  c.opt.CoupleOrder,
		FixedOffset:  c.opt.FixedOffset,
		MaxFuse:      c.opt.MaxFuse,
		Workload:     p.Workload.Name,
		TargetInstrs: p.Workload.TargetInstrs,
		Seed:         p.Seed,
		Tenant:       p.Tenant,
	}
}

func (c *composed) loopRemote(ln *lane) error {
	ln.begin("transport.dial")
	dialStart := ln.spans[len(ln.spans)-1].start
	cl, err := transport.Dial(c.p.RemoteAddr, c.hello(), c.p.RemoteCfg)
	ln.end()
	if err != nil {
		return err
	}
	defer cl.Close()
	sw := c.st.lanes[laneConsumer]
	sink := func(pkt batch.Packet) (bool, error) {
		sw.begin("pipeline.consume")
		sw.begin("transport.send")
		stop, err := cl.SendPacket(pkt)
		sw.end()
		sw.end()
		c.st.c.frames++
		return stop, err
	}
	if _, err := c.runPipeline(ln, sink); err != nil {
		return err
	}
	ln.begin("transport.finish")
	v, err := cl.Finish()
	ln.end()
	c.st.c.dialToFinishNs = ln.now() - dialStart
	if err != nil {
		return err
	}
	c.st.c.tokenStalls = cl.Stalls()
	c.out.Reconnects = cl.Reconnects()
	c.out.Migrations = cl.Migrations()
	if v.Mismatch != nil {
		c.mismatch = v.Mismatch.ToChecker()
		return nil
	}
	if !c.hwDone {
		return fmt.Errorf("did not finish within %d cycles: %w", c.p.MaxCycles, cosim.ErrCycleLimit)
	}
	if !v.Finished {
		return fmt.Errorf("server closed session %d without finishing", cl.Session())
	}
	c.out.Finished = true
	c.out.TrapCode = v.TrapCode
	return nil
}

// finish fills the outcome's simulated statistics and the session's counts.
func (c *composed) finish() {
	o := &c.out
	o.Mismatch = c.mismatch
	if c.rep != nil {
		o.Detailed = c.rep.Detailed
	}
	o.Cycles = c.d.CycleCount
	o.Instrs = c.d.Instrs
	o.SimSeconds = c.link.Drain()
	o.Invokes = c.link.Invokes
	o.WireBytes = c.link.Bytes

	sc := &c.st.c
	sc.instrs = o.Instrs
	sc.wireBytes = o.WireBytes
	sc.packetUtil = c.packer.Utilization()
	for _, f := range c.fusers {
		sc.fusedInstrs += f.Stats.FusedCommits
	}
}
