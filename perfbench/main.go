// Command perfbench is darksim's end-to-end benchmark. One invocation
// runs one workload in this process and prints a report whose last line
// is a JSON object with the result:
//
//	perfbench --workload figures|queries|sandbox --seed N --seconds S --trace 0|1
//
// The figures workload regenerates the 14 registered figures as
// `darksim all` does, from cold platform and influence caches, and checks
// every table against the golden corpus. The queries workload drives an
// in-process darksimd with two closed-loop clients sending a seeded mix
// of TSP queries and scenario evaluations. The sandbox workload drives
// the same server with two closed-loop clients that submit seeded policy
// races as async runs and follow them over SSE.
//
// With --trace 0 it measures the workload for --seconds seconds and
// reports the end-to-end metrics. With --trace 1 it runs a fixed amount
// of work instead: slices of the named workload untraced and traced, a
// traced slice of the other two workloads, and direct calls into each
// layer, all recorded as spans; it reports the per-layer metrics and the
// tracing overhead and writes every span to a JSON file under -out. See
// NOTES.md for what each metric means.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is the
	// median.
	setupRepeats = 3
	heapEvery    = 10 * time.Millisecond
)

// workloadResult collects what one run reports.
type workloadResult struct {
	metrics           metricSet
	attempted, failed int
	props             []string // input properties
	notes             []string // failures and observations
}

// machine identifies where and on what code a report was produced.
type machine struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
}

// commit names the checked-out commit when root is the top of a git
// work tree (not merely somewhere inside another repository).
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	lines := strings.Fields(string(out))
	if err != nil || len(lines) != 2 || filepath.Clean(lines[0]) != filepath.Clean(root) {
		return "unknown (not a git work tree)"
	}
	return lines[1]
}

// sourceHash digests the module's Go sources and embedded data, so a
// report identifies the code it measured even outside git.
func sourceHash(root string) string {
	h := sha256.New()
	var paths []string
	// Unreadable entries are skipped rather than failing the run: the
	// digest only identifies the tree.
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".json") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "figures, queries or sandbox")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured time of an untraced run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", ".", "directory the traced run writes its spans to")
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *traceFlag == 1, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, workload string, seed uint64, seconds float64, traced bool, outDir string) error {
	switch workload {
	case "figures", "queries", "sandbox":
	default:
		return fmt.Errorf("unknown workload %q (want figures, queries or sandbox)", workload)
	}
	if !(seconds > 0) {
		return fmt.Errorf("--seconds must be positive")
	}
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	m := machine{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit(wd), SourceHash: sourceHash(wd), Seed: seed,
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", workload, seed, seconds, traced)
	fmt.Fprintf(w, "machine: go=%s GOMAXPROCS=%d NumCPU=%d commit=%s source_sha256=%s\n",
		m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.Commit, m.SourceHash)
	fmt.Fprintf(w, "why: %s\n", why[workload])

	ctx := context.Background()
	rng := rand.New(rand.NewPCG(seed, 0x6461726b73696d)) // "darksim"
	res := &workloadResult{}
	if traced {
		err = runTraced(ctx, w, workload, seed, outDir, m, res)
	} else {
		switch workload {
		case "figures":
			err = runFigures(ctx, rng, seconds, res)
		case "queries":
			err = runQueries(ctx, rng, seconds, res)
		case "sandbox":
			err = runSandbox(rng, seconds, res)
		}
	}
	if err != nil {
		return err
	}
	for _, p := range res.props {
		fmt.Fprintf(w, "input: %s\n", p)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "error_rate=%.6f (failed %d of %d attempted)\n",
		float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	res.metrics.print(w)

	out := resultJSON{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, mt := range res.metrics {
		out.Metrics[mt.name] = metricJSON{Value: mt.value, Unit: mt.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// why records the reason each workload exists.
var why = map[string]string{
	"figures": "the CLI reproduction path: transient stepping (fig12 dense sim.RunBatch, fig13 sparse CG) does most of the work; the service and jobs layers do nothing",
	"queries": "short requests: service caching and coalescing, platform builds, influence and TSP do the work, transient stepping does none",
	"sandbox": "the same transients stepped by the policy pack engine instead of sim.RunBatch, plus jobs queueing, the event log and SSE",
}
