package cosim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/batch"
	"repro/internal/checker"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// Every run couples one hardware half (hwProducer) to one software half.
// Modeled runs drive the in-process receiver inline, one transfer at a
// time. Executed runs (Options.Executed) stage the same two halves onto
// internal/pipeline: the DUT producer (monitor + acceleration unit +
// modeled link accounting), the link, and the checking consumer run in
// separate goroutines. Blocking configurations use the per-transfer
// handshake; NonBlocking streams through a bounded queue sized by the
// platform's QueueDepth. On multi-core DUTs the NonBlocking consumer
// additionally fans items out to one checking goroutine per core (the
// checker's per-core independence contract, see internal/checker). Remote
// runs swap the receiver for a network sink (remote.go).
//
// The modeled simulated-time accounting is the same in every mode — the
// producer drives comm.Link — so an executed run reports both the analytic
// speed (SpeedHz) and the measured wall-clock concurrency (Exec, ExecutedHz).

// xfer is one transfer from the hardware half: a packed packet
// (Batch/fixed-offset modes, pkt.Buf != nil) or one bare wire item
// (per-event baseline). The packet is held by value: a pointer into the
// producer's packet slice would alias storage the producer may reuse while
// the consumer goroutine is still reading.
type xfer struct {
	pkt   batch.Packet
	items []wire.Item
}

// hwProducer is the hardware half of every run: it steps the DUT, applies
// the acceleration unit and the packing, and hands over one transfer per
// call, accounting it on the modeled link at the handover. Packing is lazy:
// a cycle is packed only once every transfer of the previous one was handed
// over, so a run that stops at a mismatch packs, sends and accounts nothing
// past it.
type hwProducer struct {
	r        *runner
	pending  []xfer
	tails    [][]wire.Item // per-core fuser tails still to pack after the trap
	finished bool          // the DUT reached its trap
	flushed  bool          // the open packet was closed after the tails
}

func (p *hwProducer) next() (xfer, bool, error) {
	for len(p.pending) == 0 {
		var err error
		switch {
		case !p.finished:
			err = p.step()
		case len(p.tails) > 0:
			p.pending, err = p.pack(p.tails[0], false)
			p.tails = p.tails[1:]
		case !p.flushed:
			p.flushed = true
			p.pending, err = p.pack(nil, true)
		default:
			return xfer{}, false, nil
		}
		if err != nil {
			return xfer{}, false, err
		}
	}
	x := p.pending[0]
	p.pending = p.pending[1:]
	if x.pkt.Buf != nil {
		p.r.link.Send(len(x.pkt.Buf), x.pkt.Events, x.pkt.Instrs)
	} else {
		p.r.link.Send(x.items[0].BaselineWireSize(), 1, x.items[0].InstrCount())
	}
	return x, true, nil
}

// step advances the DUT one cycle and packs what its monitor emitted.
func (p *hwProducer) step() error {
	r := p.r
	if err := r.cancelled(); err != nil {
		return err
	}
	if r.d.CycleCount >= r.p.MaxCycles {
		return fmt.Errorf("cosim: %s did not finish within %d cycles: %w", r.p.DUT.Name, r.p.MaxCycles, ErrCycleLimit)
	}
	recs, done := r.d.StepCycle()
	r.link.AdvanceCycle()
	if r.p.Trace != nil {
		if err := r.p.Trace.WriteCycle(r.d.CycleCount, recs); err != nil {
			return err
		}
	}
	var err error
	p.pending, err = p.pack(r.hardwareSide(recs), false)
	if done {
		p.finished = true
		for _, f := range r.fusers {
			p.tails = append(p.tails, f.Flush())
		}
	}
	return err
}

// pack applies the configured packing to one cycle's items; flush closes
// the open packet after them.
func (p *hwProducer) pack(items []wire.Item, flush bool) ([]xfer, error) {
	r := p.r
	var pkts []batch.Packet
	switch {
	case r.fixed != nil:
		var err error
		if pkts, err = r.fixed.AddCycle(items); err != nil {
			return nil, err
		}
		if flush {
			pkts = append(pkts, r.fixed.Flush()...)
		}
	case r.packer != nil:
		pkts = r.packer.AddCycle(items)
		if flush {
			pkts = append(pkts, r.packer.Flush()...)
		}
	default:
		// Per-event transfers (one DPI-C call per event, paper §2.2).
		out := make([]xfer, len(items))
		for i := range items {
			out[i].items = items[i : i+1 : i+1]
		}
		return out, nil
	}
	out := make([]xfer, len(pkts))
	for i := range pkts {
		out[i].pkt = pkts[i]
	}
	return out, nil
}

// releasePending returns the pooled buffers of packed-but-untransferred
// packets (the run stopped early on a mismatch or an error).
func (p *hwProducer) releasePending() {
	for _, x := range p.pending {
		dropXfer(x)
	}
	p.pending = nil
}

// dropXfer releases a transfer the consumer never saw — the pipeline's Drop
// callback for transfers stranded in flight by an early stop.
func dropXfer(x xfer) {
	if x.pkt.Buf != nil {
		x.pkt.Release()
	}
}

// inline is the modeled driver: each transfer is checked before the next
// one is produced, so the run stops exactly at the first mismatch.
func (r *runner) inline(prod *hwProducer) (*checker.Mismatch, error) {
	for {
		x, ok, err := prod.next()
		if err != nil || !ok {
			return nil, err
		}
		if stop, err := r.recv.accept(x); stop || err != nil {
			return r.recv.mismatch, err
		}
	}
}

// pipelined is the executed driver: the hardware and software halves run
// concurrently under internal/pipeline.
func (r *runner) pipelined(prod *hwProducer) (*checker.Mismatch, error) {
	sink := r.recv.accept
	var fan *fanout
	if r.p.DUT.Cores > 1 && r.opt.NonBlocking {
		fan = newFanout(r.recv, r.p.DUT.Cores)
		sink = fan.sink
	}
	m, err := pipeline.Run(prod.next, sink, pipeline.Config{
		NonBlocking: r.opt.NonBlocking,
		QueueDepth:  r.p.Platform.QueueDepth,
	}, dropXfer)
	mm := r.recv.mismatch
	if fan != nil {
		fan.close()
		if err == nil {
			err = fan.firstErr()
		}
		mm = fan.col.First()
	}
	if err != nil {
		return nil, err
	}
	r.res.Exec = m
	return mm, nil
}

// fanout is the executed sink of multi-core NonBlocking runs: the receiver
// unpacks on the pipeline's consumer goroutine and each item is checked on
// its core's goroutine. Mismatches from any of them go through a
// checker.Collector, which resolves the same winner the sequential stream
// order would.
type fanout struct {
	rv  *receiver
	col checker.Collector

	chans   []chan wire.Item
	wg      sync.WaitGroup
	stopped atomic.Bool

	errMu sync.Mutex
	err   error
}

func newFanout(rv *receiver, cores int) *fanout {
	f := &fanout{rv: rv, chans: make([]chan wire.Item, cores)}
	for i := range f.chans {
		// Several packets' worth of items per core, so the routing sink
		// does not stall on whichever core is momentarily the slowest.
		ch := make(chan wire.Item, 1024)
		f.chans[i] = ch
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for it := range ch {
				if f.stopped.Load() {
					continue // drain so the router never blocks
				}
				m, err := f.rv.checkItem(it)
				if err != nil {
					f.fail(err)
					continue
				}
				if m != nil {
					f.col.Offer(m)
					f.stopped.Store(true)
				}
			}
		}()
	}
	return f
}

func (f *fanout) fail(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
	f.stopped.Store(true)
}

func (f *fanout) firstErr() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

// sink unpacks one transfer and routes its items to their cores.
func (f *fanout) sink(x xfer) (bool, error) {
	items, err := f.rv.decode(x)
	if err != nil {
		return false, err
	}
	for _, it := range items {
		if f.stopped.Load() {
			break
		}
		if int(it.Core) >= len(f.chans) {
			f.col.Offer(&checker.Mismatch{Core: it.Core, Detail: "item for unknown core"})
			f.stopped.Store(true)
			break
		}
		f.chans[it.Core] <- it
	}
	return f.stopped.Load(), f.firstErr()
}

// close joins the per-core checking goroutines.
func (f *fanout) close() {
	for _, ch := range f.chans {
		close(ch)
	}
	f.wg.Wait()
}
