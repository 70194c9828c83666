package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tailOf must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{20, 50, 10, 10},
		{99, 50, 50, 49},
		{100, 90, 90, 10},
		{999, 90, 900, 99},
		{1000, 99, 990, 10},
	} {
		got, ok := tailOf(seq(tc.n))
		if !ok || got.P != tc.p || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: tail %+v ok=%v, want p%g = %v with %d beyond", tc.n, got, ok, tc.p, tc.value, tc.beyond)
		}
		if got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, got.Beyond, got.P)
		}
	}
	if _, ok := tailOf(seq(19)); ok {
		t.Error("19 samples reported a tail; the median has only 9 beyond it")
	}
}

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	for _, tc := range []struct {
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[]interval{{10, 20}, {30, 40}}, 0, 100, 20},
		{[]interval{{10, 30}, {20, 40}}, 0, 100, 30},           // overlap counted once
		{[]interval{{10, 50}, {20, 30}, {25, 35}}, 0, 100, 40}, // nested
		{[]interval{{30, 40}, {10, 30}}, 0, 100, 30},           // touching, unsorted
		{[]interval{{-10, 20}, {90, 120}}, 0, 100, 30},         // clipped to the parent
	} {
		if got := unionLen(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("unionLen(%v, %d, %d) = %d, want %d", tc.ivs, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	st := newSessTrace(0)
	st.lanes[laneClient].spans = []span{{name: rootSession, start: 0, end: 100, parent: noParent}}
	root := spanRef{laneClient, 0}
	// Producer and consumer children overlap in [40, 60): the root's self
	// time is 100 - |[10,60) ∪ [40,90)| = 100 - 80 = 20, not 100 - 100.
	st.lanes[laneProducer].spans = []span{
		{name: "pipeline.produce", start: 10, end: 60, parent: root},
		{name: "dut.step", start: 20, end: 30, parent: spanRef{laneProducer, 0}},
	}
	st.lanes[laneConsumer].spans = []span{{name: "pipeline.consume", start: 40, end: 90, parent: root}}
	self := st.selfTimes()
	for ref, want := range map[spanRef]int64{
		root:              20,
		{laneProducer, 0}: 40,
		{laneProducer, 1}: 10,
		{laneConsumer, 0}: 50,
	} {
		if got := self[ref]; got != want {
			t.Errorf("self time of %v = %d, want %d", ref, got, want)
		}
	}
	lg := newLedger()
	lg.add(st)
	if got := lg.unaccountedShare(); got != 0.2 {
		t.Errorf("unaccounted share = %v, want 0.2", got)
	}
}

func TestDeriveSeedIsStableAndSpread(t *testing.T) {
	if deriveSeed(1, "a", 0) != deriveSeed(1, "a", 0) {
		t.Fatal("deriveSeed is not deterministic")
	}
	seen := map[int64]bool{}
	for _, s := range []int64{1, 2} {
		for _, stream := range []string{"a", "b"} {
			for i := 0; i < 100; i++ {
				v := deriveSeed(s, stream, i)
				if v < 0 || seen[v] {
					t.Fatalf("deriveSeed(%d, %q, %d) = %d repeats or is negative", s, stream, i, v)
				}
				seen[v] = true
			}
		}
	}
}
