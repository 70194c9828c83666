package cosim

import (
	"fmt"
	"strings"

	"repro/internal/checker"
	"repro/internal/dut"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// CheckerSession is the server-side software half of one networked DUT
// session: the same receiver in-process runs use, minus the Replay round
// trip (the replay buffer lives in the client's hardware, so remote
// mismatches report the diagnosis without replay). It implements
// transport.SessionChecker; difftestd builds one per session.
type CheckerSession struct{ rv *receiver }

// NewSession resolves a handshake into a fresh checker session. Both ends
// derive the program image from the same (workload, cores, seed) triple, so
// the server's reference models start from exactly the client DUT's state.
// This is transport.NewSessionFunc for difftestd.
func NewSession(h transport.Hello) (transport.SessionChecker, error) {
	d, ok := dutByName(h.DUT)
	if !ok {
		return nil, fmt.Errorf("unknown DUT %q", h.DUT)
	}
	opt, err := ParseConfig(h.Config)
	if err != nil {
		return nil, err
	}
	opt.CoupleOrder = h.CoupleOrder
	opt.FixedOffset = h.FixedOffset
	opt.MaxFuse = h.MaxFuse
	var wl workload.Profile
	if h.Profile != nil {
		// Full profile on the wire (fuzzing campaigns): the handshake carries
		// an arbitrary — possibly mutated — parameter vector, so validate it
		// before the generator sees it.
		wl = *h.Profile
	} else {
		var ok bool
		wl, ok = workload.ByName(h.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", h.Workload)
		}
		wl.TargetInstrs = h.TargetInstrs
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	if opt.FixedOffset && d.Cores > 1 {
		return nil, fmt.Errorf("fixed-offset packing supports a single core")
	}

	prog := workload.Generate(wl, d.Cores, h.Seed)
	return &CheckerSession{rv: newReceiver(opt, d, checker.New(prog.Image, prog.Entries, d.Cores))}, nil
}

// dutByName resolves a handshake DUT name against the configured designs.
func dutByName(name string) (dut.Config, bool) {
	for _, d := range dut.Configs() {
		if strings.EqualFold(d.Name, name) {
			return d, true
		}
	}
	return dut.Config{}, false
}

// Packet consumes one batch-packed packet from a pooled frame buffer. The
// unpacker (or the fixed-frame reassembly) copies every payload it keeps, so
// the caller releases buf immediately after return.
func (s *CheckerSession) Packet(buf []byte) (*checker.Mismatch, error) { return s.rv.packet(buf) }

// Items consumes bare wire items (the per-event baseline config).
func (s *CheckerSession) Items(items []wire.Item) (*checker.Mismatch, error) {
	return s.rv.check(items)
}

// Finish flushes the unpacker tail and the reorderer's held-back checks,
// then reports the final verdict.
func (s *CheckerSession) Finish() (transport.Final, error) { return s.rv.verdict() }

// Events reports how many wire items this session checked.
func (s *CheckerSession) Events() uint64 { return s.rv.events }

// CoverageSnapshot merges the per-core coverage counters — the server
// attaches it to the closing verdict (transport.CoverageReporter).
func (s *CheckerSession) CoverageSnapshot() *checker.Coverage { return s.rv.chk.Coverage() }
