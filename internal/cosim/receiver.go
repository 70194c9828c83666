package cosim

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/checker"
	"repro/internal/dut"
	"repro/internal/squash"
	"repro/internal/transport"
	"repro/internal/wire"
)

// receiver is the software half of a co-simulation (paper Fig. 3/12):
// unpack — meta-guided, or fixed-frame reassembly — then reorder through the
// Squash desquasher or convert each item straight to a checker record, check
// against the REF, and stop at the first mismatch. Modeled and executed runs
// and difftestd's CheckerSession all drive this one type. Replay stays with
// the caller, which owns the hardware replay buffer.
type receiver struct {
	opt      Options
	chk      *checker.Checker
	desq     *squash.Desquasher // Squash configurations
	unpacker *batch.Unpacker    // Batch with tight packing
	layout   *batch.FixedLayout // Batch with fixed-offset packing
	fixedRx  []byte             // fixed-offset bytes short of a whole frame

	events   uint64
	mismatch *checker.Mismatch
}

// newReceiver builds the software half for one run or session of DUT d.
func newReceiver(opt Options, d dut.Config, chk *checker.Checker) *receiver {
	rv := &receiver{opt: opt, chk: chk}
	if opt.Squash {
		rv.desq = squash.NewDesquasher(chk, d.EnabledKinds())
	}
	if opt.Batch {
		if opt.FixedOffset {
			rv.layout = batch.NewFixedLayout(d.EventKinds, maxInt(1, d.BurstMax))
		} else {
			rv.unpacker = &batch.Unpacker{}
		}
	}
	return rv
}

// accept consumes one transfer from the hardware half and reports whether
// the stream diverged — the pipeline.Sink of in-process runs.
func (rv *receiver) accept(x xfer) (bool, error) {
	items, err := rv.decode(x)
	if err != nil {
		return false, err
	}
	m, err := rv.check(items)
	return m != nil, err
}

// decode recovers the wire items a transfer carries. The packet buffer goes
// back to the pool here: unpacking copied every payload it keeps.
func (rv *receiver) decode(x xfer) ([]wire.Item, error) {
	if x.pkt.Buf == nil {
		return x.items, nil
	}
	defer x.pkt.Release()
	return rv.unpack(x.pkt.Buf[:x.pkt.Used])
}

// packet unpacks and checks one packet's content bytes.
func (rv *receiver) packet(buf []byte) (*checker.Mismatch, error) {
	items, err := rv.unpack(buf)
	if err != nil {
		return nil, err
	}
	return rv.check(items)
}

// unpack parses one packet. Fixed-offset packets are appended to the
// reassembly buffer and yield the items of every frame they complete.
func (rv *receiver) unpack(buf []byte) ([]wire.Item, error) {
	switch {
	case rv.unpacker != nil:
		return rv.unpacker.AddPacket(buf)
	case rv.layout == nil:
		return nil, fmt.Errorf("cosim: packet frame on a per-event (%s) session", rv.opt.Name())
	}
	rv.fixedRx = append(rv.fixedRx, buf...)
	n := len(rv.fixedRx) / rv.layout.FrameSize * rv.layout.FrameSize
	frames, err := batch.UnpackFixedStream(rv.layout, rv.fixedRx[:n])
	if err != nil {
		return nil, err
	}
	rv.fixedRx = append(rv.fixedRx[:0], rv.fixedRx[n:]...)
	var items []wire.Item
	for _, f := range frames {
		items = append(items, f...)
	}
	return items, nil
}

// check counts and checks items in stream order, stopping at the first
// divergence; once the stream has diverged, later items drain unchecked.
func (rv *receiver) check(items []wire.Item) (*checker.Mismatch, error) {
	if rv.mismatch != nil {
		return nil, nil
	}
	for _, it := range items {
		rv.events++
		m, err := rv.checkItem(it)
		if err != nil {
			return nil, err
		}
		if m != nil {
			rv.mismatch = m
			return m, nil
		}
	}
	return nil, nil
}

// checkItem runs one item through the desquasher or straight into the
// checker. It touches no receiver state, so the per-core fan-out may call
// it from one goroutine per core.
func (rv *receiver) checkItem(it wire.Item) (*checker.Mismatch, error) {
	if rv.desq != nil {
		return rv.desq.Process(it), nil
	}
	rec, err := wire.ToRecord(it)
	if err != nil {
		return nil, err
	}
	return rv.chk.Process(rec), nil
}

// finish ends the stream — the unpacker's held-back cycle group, then the
// desquasher's held-back checks — and returns its first mismatch.
func (rv *receiver) finish() (*checker.Mismatch, error) {
	if rv.unpacker != nil {
		if _, err := rv.check(rv.unpacker.Flush()); err != nil {
			return nil, err
		}
	}
	if rv.desq != nil && rv.mismatch == nil {
		rv.mismatch = rv.desq.Flush()
	}
	return rv.mismatch, nil
}

// verdict ends the stream and reports the session's final verdict.
func (rv *receiver) verdict() (transport.Final, error) {
	m, err := rv.finish()
	if m != nil || err != nil {
		return transport.Final{Mismatch: m}, err
	}
	_, code := rv.chk.Finished()
	return transport.Final{TrapCode: code}, nil
}
