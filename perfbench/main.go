// Command perfbench is the repository's end-to-end benchmark: it runs
// co-simulation sessions of one workload in a closed loop, checks every
// verdict, and prints host-side metrics by name and unit, ending with one
// JSON line. With --trace 1 it instead runs traced sessions composed from the
// layers' public calls and prints per-layer metrics. See README.md.
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload linux-eb-executed --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// defaultSeed is the seed used while developing against this benchmark.
// heldOutSeed is reserved for confirming a claimed gain on a seed the change
// was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 20251017
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "all", "workload to run, or all")
	seed := flags.Int64("seed", defaultSeed, fmt.Sprintf("benchmark seed; every session seed derives from it (held-out seed: %d)", heldOutSeed))
	seconds := flags.Float64("seconds", 40, "seconds a run measures at least")
	trace := flags.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll([]string{"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds),
			"--trace", fmt.Sprint(*trace)}, stdout)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		minSessions: w.minSessions,
		dir:         filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
	}
	return execute(cfg, stdout)
}

// textOnly names the metrics printed as text but left out of the JSON line,
// with the reason for each.
var textOnly = map[string]string{
	"failed_share": "carried by attempted and failed",
	// Measured only on bughunt-linux-modeled, which BENCHMARK.json does not
	// list: on the listed workloads no session replays, and the fleet
	// desquashes on the shard side, inside cosim.
	"replay.run_ms":               "bug sessions only",
	"replay.replayed_records":     "bug sessions only",
	"squash.desquash_ns_per_item": "client-side Squash only",
}

// execute runs one configured benchmark run and prints its result. It
// returns the process exit code: 0 only when every check passed.
func execute(cfg config, stdout io.Writer) int {
	env := environment()
	fmt.Fprintf(stdout, "# env %s\n", formatEnv(env))
	fmt.Fprintf(stdout, "# workload %s seed=%d seconds=%g trace=%v clients=%d\n",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, cfg.w.clients)
	defer os.RemoveAll(cfg.dir)

	b := &bench{cfg: cfg, refs: map[int]outcome{}}
	var rp *report
	var err error
	if cfg.trace {
		rp, err = b.traced(env)
	} else {
		rp, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.w.name, err)
		return 1
	}
	for _, l := range rp.log {
		fmt.Fprintf(stdout, "# %s\n", l)
	}
	for _, e := range rp.errs {
		fmt.Fprintf(stdout, "# FAILED %s\n", e)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: rp.failed == 0, Attempted: rp.attempted, Failed: rp.failed, Metrics: map[string]map[string]any{}}
	for _, m := range rp.metrics {
		fmt.Fprintf(stdout, "%-38s %14.6g %-13s %s\n", m.name, m.value, m.unit, m.note)
		if _, ok := textOnly[m.name]; ok {
			continue
		}
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload with the given flags, each in its own process so
// that peak_rss_mb is the workload's own, and returns the worst exit code.
func runAll(args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(args, "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = max(code, 1)
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = max(code, ee.ExitCode())
			}
		}
	}
	return code
}

// environment stamps what a result depends on beyond the code, so results
// from different machines are not compared by accident.
func environment() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env["commit"] += "+modified"
				}
			}
		}
	}
	return env
}

func formatEnv(env map[string]string) string {
	var parts []string
	for _, k := range sortedKeys(env) {
		parts = append(parts, fmt.Sprintf("%s=%q", k, env[k]))
	}
	return strings.Join(parts, " ")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories: it identifies the code measured when the checkout
// carries no version-control metadata.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
