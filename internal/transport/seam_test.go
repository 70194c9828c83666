package transport

import (
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeTransport is a minimal FrameTransport for registry tests; it also
// reports LinkStats so the Client accessor's StatsReporter path is covered.
type fakeTransport struct {
	FrameTransport
	stats LinkStats
}

func (f *fakeTransport) LinkStats() LinkStats { return f.stats }
func (f *fakeTransport) Close() error         { return nil }

// TestSchemeRegistry pins the pluggable-transport contract: a registered
// scheme resolves through DialFrame and Listen, shows in SchemeNames, and
// the built-ins and duplicates are rejected at registration.
func TestSchemeRegistry(t *testing.T) {
	// The registry is process-global: unregister the fake scheme so the
	// test can run again under -count or a -cpu list.
	t.Cleanup(func() {
		schemeMu.Lock()
		delete(schemes, "fake")
		schemeMu.Unlock()
	})
	dialed, listened := "", ""
	RegisterScheme("fake", Scheme{
		Dial: func(addr string, timeout time.Duration) (FrameTransport, error) {
			dialed = addr
			return &fakeTransport{}, nil
		},
		Listen: func(addr string) (FrameListener, error) {
			listened = addr
			return nil, errors.New("fake listener")
		},
	})

	names := SchemeNames()
	for _, want := range []string{"tcp", "unix", "fake"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("SchemeNames() = %v is missing %q", names, want)
		}
	}

	ft, err := DialFrame("fake://somewhere?x=1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ft.Close()
	if dialed != "somewhere?x=1" {
		t.Fatalf("registered dial saw addr %q, want the spec minus its scheme", dialed)
	}
	if _, err := Listen("fake://elsewhere"); err == nil || listened != "elsewhere" {
		t.Fatalf("registered listen: addr=%q err=%v, want the fake listener error", listened, err)
	}

	mustPanic := func(name string, s Scheme) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("RegisterScheme(%q) must panic", name)
			}
		}()
		RegisterScheme(name, s)
	}
	mustPanic("tcp", Scheme{})  // built-in
	mustPanic("unix", Scheme{}) // built-in
	mustPanic("fake", Scheme{}) // duplicate
}

// TestDialFrameListenErrors sweeps the seam's failure surface: malformed
// specs, unknown schemes (named alongside the known set), and dial/listen
// failures from the built-in socket families.
func TestDialFrameListenErrors(t *testing.T) {
	if _, err := DialFrame("://nope", time.Second); err == nil {
		t.Fatal("malformed spec must fail DialFrame")
	}
	if _, err := Listen("://nope"); err == nil {
		t.Fatal("malformed spec must fail Listen")
	}
	if _, err := DialFrame("bogus://x", time.Second); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("unknown dial scheme: err = %v", err)
	}
	if _, err := Listen("bogus://x"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("unknown listen scheme: err = %v", err)
	}
	dead := "unix://" + filepath.Join(t.TempDir(), "nobody.sock")
	if _, err := DialFrame(dead, 100*time.Millisecond); err == nil {
		t.Fatal("dial to an unbound socket must fail")
	}
	if _, err := Listen("unix://" + filepath.Join(t.TempDir(), "missing-dir", "x.sock")); err == nil {
		t.Fatal("listen in a missing directory must fail")
	}
}

// TestNetListenerSeam pins the netListener adapter: Addr mirrors the wrapped
// listener and AcceptFrame yields framed conns that carry real frames.
func TestNetListenerSeam(t *testing.T) {
	nl, err := net.Listen("unix", filepath.Join(t.TempDir(), "seam.sock"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewNetListener(nl)
	defer l.Close()
	if l.Addr() != nl.Addr().String() {
		t.Fatalf("Addr() = %q, want %q", l.Addr(), nl.Addr().String())
	}
	go func() {
		c, err := DialFrame("unix://"+nl.Addr().String(), time.Second)
		if err != nil {
			return
		}
		defer c.Close()
		c.WriteFrame(FrameItems, []byte("over the seam"))
	}()
	conn, err := l.AcceptFrame()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h, p, err := conn.ReadFrame()
	if err != nil || h.Type != FrameItems || string(p) != "over the seam" {
		t.Fatalf("accepted frame: type=%d payload=%q err=%v", h.Type, p, err)
	}
	conn.ReleasePayload(p)
	l.Close()
	if _, err := l.AcceptFrame(); err == nil {
		t.Fatal("AcceptFrame after Close must fail")
	}
}

// TestChecksumFrame pins the byte-exact checksum export: over a real wire
// image it must agree with the header's own Sum, and it must see corruption
// anywhere in the covered prefix — including the reserved bytes Sum cannot
// represent (the shm ring depends on this, found by FuzzShmRingFrame).
func TestChecksumFrame(t *testing.T) {
	p := []byte("raw ring bytes")
	h := FrameHeader{Magic: FrameMagic, Type: FramePacket, Length: uint32(len(p)), Seq: 41}
	img := h.AppendTo(nil)
	if got := ChecksumFrame(img[:FrameCheckOffset], p); got != h.Sum(p) {
		t.Fatalf("ChecksumFrame = %#x, Sum = %#x over the same frame", got, h.Sum(p))
	}
	clean := ChecksumFrame(img[:FrameCheckOffset], p)
	img[7] ^= 1 // reserved byte: invisible to Sum, covered by the wire image
	if ChecksumFrame(img[:FrameCheckOffset], p) == clean {
		t.Fatal("reserved-byte corruption must change the checksum")
	}
}

// TestClientLinkStats pins the pass-through accessor: zero for socket
// transports, the transport's own counters when it reports them.
func TestClientLinkStats(t *testing.T) {
	_, spec := startServer(t, ServerConfig{
		NewSession: stubSessions(func() *stubChecker { return &stubChecker{} }),
	})
	cl, err := Dial(spec, testHello(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if ls := cl.LinkStats(); ls != (LinkStats{}) {
		t.Fatalf("socket client LinkStats = %+v, want zero", ls)
	}
	// A client over a stats-reporting transport passes the counters through.
	// Built directly — no reader goroutine — since gen.conn is reader-owned
	// on a live client.
	fc := &Client{gen: newGen(&fakeTransport{
		stats: LinkStats{WriterParks: 3, ReaderParks: 7},
	}, 1, 1)}
	if ls := fc.LinkStats(); ls.WriterParks != 3 || ls.ReaderParks != 7 {
		t.Fatalf("LinkStats = %+v, want the transport's counters", ls)
	}
}
