// Package squash implements the Squash mechanism (paper §4.3): reducing
// data transmission volume by fusing verification events across instructions
// with the checking order decoupled from the transmission order.
//
// The hardware-side Fuser:
//   - fuses instruction commits into FusedCommit summaries (count, final PC,
//     PC digest);
//   - folds REF-derivable events (loads, stores, exceptions, vector
//     writebacks, ...) into a per-window digest the checker recomputes;
//   - schedules NDEs (interrupts, MMIO accesses) and other DUT-specific
//     events (refills, TLB fills, redirects) ahead with order tags, so they
//     never break fusion (order decoupling);
//   - keeps only the latest architectural-state snapshot per kind per window
//     and transmits it as a tagged difference against the previous
//     transmitted instance (differencing).
//
// The software-side Desquasher (desquash.go) restores the checking order
// from the tags and drives the checker.
//
// The order-coupled baseline (Config.CoupleOrder) reproduces existing
// fusion schemes: every NDE terminates the ongoing fusion window, which the
// paper shows causes frequent fusion breaks and a limited fusion ratio.
package squash

import (
	"repro/internal/derive"
	"repro/internal/event"
	"repro/internal/wire"
)

// Config tunes the fusion unit.
type Config struct {
	// MaxFuse is the fusion window size in commits (the window closes at
	// the end of the cycle in which it fills).
	MaxFuse int
	// CoupleOrder reproduces order-coupled fusion: NDEs break the window.
	CoupleOrder bool
	// StateFlushAge bounds how many cycles a pending state snapshot may
	// wait before being transmitted even without a window flush.
	StateFlushAge int
}

// DefaultConfig returns the paper-calibrated fusion configuration.
func DefaultConfig() Config {
	return Config{MaxFuse: 64, StateFlushAge: 64}
}

// Stats counts fusion behaviour (the Squash performance counters, §5).
type Stats struct {
	Windows      uint64 // fusion windows flushed
	FusedCommits uint64 // commits fused into windows
	Breaks       uint64 // NDE-induced window breaks (order-coupled mode)
	NDEsAhead    uint64 // events transmitted ahead with order tags
	Diffs        uint64 // differenced state events
	DiffBytes    uint64 // bytes transmitted for diffs
	RawState     uint64 // first-instance state events sent whole
}

// FusionRatio returns the mean number of commits per fused transfer.
func (s Stats) FusionRatio() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.FusedCommits) / float64(s.Windows)
}

type pendSnap struct {
	ev  event.Event
	seq uint64
}

// Fuser is the per-core hardware-side fusion unit.
type Fuser struct {
	Cfg   Config
	Core  uint8
	Stats Stats

	fc         wire.FusedCommit
	windowOpen bool
	tokenSet   bool
	dig        derive.Digest

	pendState map[event.Kind]pendSnap
	stateAge  int
	lastSent  map[event.Kind]event.Event

	lastSkipSeq uint64
	haveSkip    bool
}

// NewFuser builds a fusion unit for one core.
func NewFuser(cfg Config, core uint8) *Fuser {
	if cfg.MaxFuse <= 0 {
		cfg.MaxFuse = 64
	}
	if cfg.StateFlushAge <= 0 {
		cfg.StateFlushAge = 64
	}
	return &Fuser{
		Cfg: cfg, Core: core,
		pendState: make(map[event.Kind]pendSnap),
		lastSent:  make(map[event.Kind]event.Event),
	}
}

// stateKind reports whether k is an architectural-state snapshot kind.
func stateKind(k event.Kind) bool {
	return event.CategoryOf(k) == event.CatRegisterUpdate
}

// taggedKind reports whether k is a DUT-specific (non-derivable) event that
// is transmitted ahead with an order tag rather than fused.
func taggedKind(k event.Kind) bool {
	switch k {
	case event.KindRefill, event.KindCMO, event.KindL1TLB, event.KindL2TLB,
		event.KindSbuffer, event.KindRedirect:
		return true
	default:
		// Everything else is either fused state or derivable by the model.
		return false
	}
}

// Cycle processes one cycle's records for this core (with their replay
// tokens) and returns the wire items to transmit this cycle.
func (f *Fuser) Cycle(recs []event.Record, tokens []uint64) []wire.Item {
	var out []wire.Item
	slot := uint8(0)
	wantFlush := false

	for i, rec := range recs {
		ev := rec.Ev
		k := ev.Kind()
		if k == event.KindInstrCommit {
			slot++
		}
		if !f.tokenSet {
			f.fc.StartToken = tokens[i]
			f.tokenSet = true
		}

		switch {
		case k == event.KindInstrCommit:
			ic := ev.(*event.InstrCommit)
			if ic.Flags&event.CommitSkip != 0 {
				// MMIO instruction: NDE — ahead with a pre-apply tag.
				f.lastSkipSeq, f.haveSkip = rec.Seq, true
				out = f.emitNDE(out, slot, rec.Seq-1, ev)
				if f.Cfg.CoupleOrder {
					out = f.breakWindow(out, slot)
				}
				continue
			}
			f.windowOpen = true
			f.fc.Count++
			f.fc.LastSeq = rec.Seq
			f.fc.LastPC = ic.PC
			f.fc.PCDigest = foldDigest(f.fc.PCDigest, ic.PC)
			f.fc.WDigest = foldDigest(f.fc.WDigest, ic.Wdata)
			if f.fc.Count >= uint64(f.Cfg.MaxFuse) {
				wantFlush = true
			}

		case event.IsNDE(ev):
			out = f.emitNDE(out, slot, rec.Seq, ev)
			if f.Cfg.CoupleOrder {
				out = f.breakWindow(out, slot)
			}

		case stateKind(k):
			f.pendState[k] = pendSnap{ev: ev, seq: rec.Seq}

		case taggedKind(k):
			out = f.emitNDE(out, slot, rec.Seq, ev)

		case k == event.KindTrap:
			wantFlush = true
			out = append(out, wire.RawItem(f.Core, slot, ev))

		default:
			// Derivable event: fold into the window digest unless it
			// belongs to a skipped (MMIO) instruction.
			if f.haveSkip && rec.Seq == f.lastSkipSeq {
				out = f.emitNDE(out, slot, rec.Seq, ev)
				continue
			}
			f.dig.Add(ev)
		}
	}

	if wantFlush && f.windowOpen {
		out = f.flushWindow(out, 250)
	}
	// State differencing runs on its own cadence, decoupled from window
	// flushes, so fusion policy does not change snapshot traffic.
	f.stateAge++
	if len(f.pendState) > 0 && f.stateAge >= f.Cfg.StateFlushAge {
		out = f.flushState(out, 251)
		f.stateAge = 0
	}
	return out
}

// Flush closes the window and all pending state at end of run.
func (f *Fuser) Flush() []wire.Item {
	var out []wire.Item
	if f.windowOpen {
		out = f.flushWindow(out, 250)
	}
	if len(f.pendState) > 0 {
		out = f.flushState(out, 251)
	}
	return out
}

func (f *Fuser) emitNDE(out []wire.Item, slot uint8, tag uint64, ev event.Event) []wire.Item {
	f.Stats.NDEsAhead++
	return append(out, wire.NDEItem(f.Core, slot, tag, ev))
}

// breakWindow implements order-coupled fusion: transmit the fused-so-far
// window immediately when an NDE appears.
func (f *Fuser) breakWindow(out []wire.Item, slot uint8) []wire.Item {
	if !f.windowOpen {
		return out
	}
	f.Stats.Breaks++
	return f.flushWindow(out, slot)
}

func (f *Fuser) flushWindow(out []wire.Item, slot uint8) []wire.Item {
	f.Stats.Windows++
	f.Stats.FusedCommits += f.fc.Count
	out = append(out, wire.FusedItem(f.Core, slot, f.fc))
	out = append(out, wire.DigestItem(f.Core, slot, f.dig.Count, f.dig.Sum))
	f.fc = wire.FusedCommit{}
	f.dig = derive.Digest{}
	f.windowOpen, f.tokenSet = false, false
	return out
}

// flushState transmits the pending state snapshots: differenced when a
// previous instance exists, whole otherwise, always with an order tag.
func (f *Fuser) flushState(out []wire.Item, slot uint8) []wire.Item {
	for _, k := range orderedStateKinds {
		ps, ok := f.pendState[k]
		if !ok {
			continue
		}
		if prev, sent := f.lastSent[k]; sent {
			it := wire.DiffItem(f.Core, slot, ps.seq, prev, ps.ev)
			f.Stats.Diffs++
			f.Stats.DiffBytes += uint64(len(it.Payload))
			out = append(out, it)
		} else {
			f.Stats.RawState++
			out = append(out, wire.NDEItem(f.Core, slot, ps.seq, ps.ev))
		}
		f.lastSent[k] = ps.ev
		delete(f.pendState, k)
	}
	return out
}

// orderedStateKinds lists snapshot kinds in canonical flush order.
var orderedStateKinds = []event.Kind{
	event.KindArchIntRegState, event.KindCSRState, event.KindFpCSRState,
	event.KindArchFpRegState, event.KindVecCSRState, event.KindArchVecRegState,
	event.KindHCSRState, event.KindDebugCSRState, event.KindTriggerCSRState,
}
