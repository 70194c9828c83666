package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// paperReports are the paper-reproduction reports behind `difftest paper
// <name> [flags]`. Each entry registers its flags on fs and returns the
// function that prints the report once the flags are parsed.
var paperReports = map[string]func(fs *flag.FlagSet) func(){
	// Table 5 — the incremental speedups from Batch, NonBlock and Squash —
	// plus the executed pipeline's measured queue occupancy and backpressure.
	"breakdown": func(fs *flag.FlagSet) func() {
		instrs, workers := instrsFlag(fs), workersFlag(fs)
		tune := fs.Int("autotune", 0,
			"also run the AIMD auto-tuner for this many rounds per configuration and report fixed-vs-tuned throughput with the controller's decisions (0 = off)")
		return func() {
			experiments.Workers = *workers
			fmt.Println(experiments.Table5(*instrs))
			fmt.Println(experiments.PipelineOccupancy(*instrs))
			if *tune > 0 {
				fmt.Println(experiments.AutotuneOccupancy(*instrs, *tune))
			}
		}
	},
	// Figure 2: the LogGP overhead breakdown of baseline co-simulation.
	"overhead": func(fs *flag.FlagSet) func() {
		instrs := instrsFlag(fs)
		return func() { fmt.Println(experiments.Figure2(*instrs)) }
	},
	// Figure 13, with Table 7 (prior work) and Table 2 (platforms) on request.
	"perf": func(fs *flag.FlagSet) func() {
		instrs := instrsFlag(fs)
		prior := fs.Bool("prior", false, "also print the prior-work comparison (Table 7)")
		platforms := fs.Bool("platforms", false, "also print the platform overview (Table 2)")
		workers := workersFlag(fs)
		return func() {
			experiments.Workers = *workers
			fmt.Println(experiments.Figure13(*instrs))
			if *prior {
				fmt.Println(experiments.Table7(*instrs))
			}
			if *platforms {
				fmt.Println(experiments.Table2())
			}
		}
	},
	// Figure 15: the gate-count cost of the verification hardware.
	"resource": func(fs *flag.FlagSet) func() {
		return func() { fmt.Println(experiments.Figure15()) }
	},
	// The verification-event census: Table 1, Figure 4 and Table 4.
	"events": func(fs *flag.FlagSet) func() {
		instrs := instrsFlag(fs)
		taxonomy := fs.Bool("taxonomy", false, "print only the event taxonomy (Table 1)")
		scales := fs.Bool("scales", false, "print only the DUT scales (Table 4)")
		return func() {
			switch {
			case *taxonomy:
				fmt.Println(experiments.Table1())
			case *scales:
				fmt.Println(experiments.Table4(*instrs))
			default:
				fmt.Println(experiments.Table1())
				fmt.Println(experiments.Figure4(*instrs))
				fmt.Println(experiments.Table4(*instrs))
			}
		}
	},
	// The bug-finding evaluation: Figure 14 and Table 6.
	"bughunt": func(fs *flag.FlagSet) func() {
		instrs := instrsFlag(fs)
		inventory := fs.Bool("inventory", false, "print only the bug inventory (Table 6)")
		return func() {
			if !*inventory {
				fmt.Println(experiments.Figure14(*instrs))
			}
			fmt.Println(experiments.Table6())
		}
	},
}

func instrsFlag(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("instrs", experiments.DefaultInstrs, "dynamic instructions per run")
}

func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "concurrent co-simulations per sweep (0 = GOMAXPROCS)")
}

// paperMain runs `difftest paper <name> [flags]`.
func paperMain(args []string) {
	var names []string
	for n := range paperReports {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(args) == 0 || paperReports[args[0]] == nil {
		fmt.Fprintf(os.Stderr, "usage: difftest paper <%s> [flags]\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	fs := flag.NewFlagSet("difftest paper "+args[0], flag.ExitOnError)
	report := paperReports[args[0]](fs)
	fs.Parse(args[1:])
	report()
}
