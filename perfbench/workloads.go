package main

import (
	"hash/fnv"

	"repro/internal/bugs"
	"repro/internal/cosim"
	"repro/internal/dut"
	"repro/internal/platform"
	"repro/internal/workload"
)

// workloadDef is one benchmark workload: a closed loop of clients, each
// waiting for its verdict before starting its next session. Why each
// workload exists, and which layers it stresses, is in README.md.
type workloadDef struct {
	name    string
	clients int
	fleet   bool // sessions go through an in-process fleet router
	// minSessions is how many sessions an end-to-end window runs at least:
	// enough for a p90 tail, and for the fleet enough that its window is
	// usually set by this count, not by --seconds, because the router keeps
	// each finished session's journal for its resume window and peak RSS
	// grows with the sessions run.
	minSessions int
	// round is how many sessions make one round; an end-to-end window ends
	// only on a round boundary, so every round's mix is measured whole.
	round int
	// session returns the i-th session of the workload's sequence for the
	// benchmark seed. Sessions with the same key run identical Params.
	session func(seed int64, i int) plannedSession
}

// plannedSession is one session of a workload's sequence.
type plannedSession struct {
	key int
	p   cosim.Params
	bug *bugs.Bug // injected at its default threshold; nil for clean sessions
}

// bugLibrary is the injectable bug library, in its fixed order.
var bugLibrary = bugs.Library()

// poolSize is how many distinct programs the clean workloads cycle through.
// Every session is checked against a modeled run of its program, made once
// per program after the timed window.
const poolSize = 8

var workloads = []workloadDef{
	{
		name:        "linux-eb-executed",
		clients:     1,
		minSessions: 100,
		round:       1,
		session: func(seed int64, i int) plannedSession {
			k := i % poolSize
			return plannedSession{key: k, p: params(workload.LinuxBoot(), 20_000, "EB", true,
				deriveSeed(seed, "linux-eb-executed", k))}
		},
	},
	{
		name:        "spec-ebinsd-fleet",
		clients:     2,
		fleet:       true,
		minSessions: 240,
		round:       1,
		session: func(seed int64, i int) plannedSession {
			k := i % poolSize
			return plannedSession{key: k, p: params(workload.SPEC(), 60_000, "EBINSD", true,
				deriveSeed(seed, "spec-ebinsd-fleet", k))}
		},
	},
	{
		name:        "bughunt-linux-modeled",
		clients:     1,
		minSessions: 100,
		round:       len(bugLibrary),
		session: func(seed int64, i int) plannedSession {
			lib := bugLibrary
			r := i / len(lib)
			return plannedSession{key: i, bug: lib[i%len(lib)],
				p: params(workload.LinuxBoot(), 120_000, "EBINSD", false, deriveSeed(seed, "bughunt-linux-modeled", r))}
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// params builds one session's run parameters on the paper's default setup:
// XiangShan Default (one core) on Palladium.
func params(wl workload.Profile, instrs uint64, config string, executed bool, seed int64) cosim.Params {
	opt, err := cosim.ParseConfig(config)
	if err != nil {
		panic(err) // the configs above are fixed names
	}
	opt.Executed = executed
	wl.TargetInstrs = instrs
	return cosim.Params{
		DUT:      dut.XiangShanDefault(),
		Platform: platform.Palladium(),
		Opt:      opt,
		Workload: wl,
		Seed:     seed,
	}
}

// deriveSeed derives the workload seed of one session from the benchmark
// seed, a stream name and an index (splitmix64 over the mixed inputs), so
// every seed a run uses follows from its --seed argument alone.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(i)*0xd1b54a32d192ed03
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1) // non-negative
}
