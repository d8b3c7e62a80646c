// Command perfbench is sparqlog's whole-request benchmark. It runs the
// sparqld and sparqlanalyze binaries built from the same checkout on
// generated inputs only, checks every answer, and prints one JSON
// result line last on standard output. A human-readable report,
// including each workload's input properties and the server's own
// counters, goes to standard error.
//
// Usage (from the repository root, after building; perfbench/run.sh
// does both):
//
//	perfbench -bin DIR -workload serve-log -seed 1 -seconds 10 -trace 0
//
// Workloads: serve-log, serve-bib and serve-hot drive a sparqld process
// over HTTP; study-log runs sparqlanalyze over an Apache log. With
// -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a separate, in-process traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// setupStarts is how many times a run starts its program to measure
// set-up; the median is reported.
const setupStarts = 7

// runEnv is one invocation's settings.
type runEnv struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sparqld  string // binary paths
	analyze  string
	dir      string // temporary directory for generated inputs, removed at exit
	mark     time.Time
}

// phase logs how long the phase that just ended took.
func (e *runEnv) phase(name string) {
	now := time.Now()
	e.logf("  [%5.2fs] %s", now.Sub(e.mark).Seconds(), name)
	e.mark = now
}

func (e *runEnv) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	attempted, failed int
	metrics           map[string]metric
}

func (r *result) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "serve-log, serve-bib, serve-hot or study-log")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = in-process traced run reporting per-layer metrics")
	bin := flag.String("bin", "", "directory holding the sparqld and sparqlanalyze binaries")
	work := flag.String("work", ".", "directory under which a temporary directory is made")
	flag.Parse()
	// This process's own collections add jitter to the load it generates;
	// its heap is small, so collect less often.
	debug.SetGCPercent(400)

	switch *workload {
	case "serve-log", "serve-bib", "serve-hot", "study-log":
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	env := &runEnv{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sparqld: filepath.Join(*bin, "sparqld"), analyze: filepath.Join(*bin, "sparqlanalyze"),
	}
	for _, b := range []string{env.sparqld, env.analyze} {
		if _, err := os.Stat(b); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env.dir = dir

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, env)
	stop()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed or disagreed with the reference\n", res.failed, res.attempted)
		os.Exit(1)
	}
}

func run(ctx context.Context, env *runEnv) (*result, error) {
	start := time.Now()
	env.mark = start
	defer func() {
		env.logf("%s trace=%v seed=%d finished in %.1fs", env.workload, env.trace, env.seed, time.Since(start).Seconds())
	}()
	switch {
	case env.workload == "study-log" && env.trace:
		return studyTrace(ctx, env)
	case env.workload == "study-log":
		return studyWorkload(ctx, env)
	case env.trace:
		return serveTrace(ctx, env)
	default:
		return serveWorkload(ctx, env)
	}
}

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
