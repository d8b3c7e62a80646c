package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparqlog/internal/analysis"
	"sparqlog/internal/core"
	"sparqlog/internal/paths"
	"sparqlog/internal/repro"
	"sparqlog/internal/shapes"
	"sparqlog/internal/sparql"
)

// sliceEntries is the size of the log slices the study's latency jobs
// analyze, one sparqlanalyze process per slice. Slices this short make
// about a thousand jobs in half of a 20-second run, so that p99 has ten
// samples beyond it.
const sliceEntries = 125

// analyzeJob runs sparqlanalyze over one log and returns its output,
// wall time and peak resident set in MiB. The peak is the process's
// VmHWM, polled while it runs: the wait4 maxrss of a child started from
// this process would also count this process's own memory, which
// execve folds into the child's figure.
func analyzeJob(ctx context.Context, bin, log string) ([]byte, time.Duration, float64, error) {
	cmd := exec.CommandContext(ctx, bin, "-format", "apache", "-log", log)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	done := make(chan struct{})
	var rss float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := peakRSSMB(cmd.Process.Pid); err == nil {
				rss = mb
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	close(done)
	wg.Wait()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("sparqlanalyze %s: %v: %s", log, err, errb.String())
	}
	return out.Bytes(), wall, rss, nil
}

// expectedReport renders, in process, the sections sparqlanalyze prints
// for a log: core.AnalyzeLog over the decoded entries.
func expectedReport(path string) ([]string, *core.DatasetReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	entries, err := core.ReadLog(f, core.FormatApache)
	if err != nil {
		return nil, nil, err
	}
	rep := core.AnalyzeLog(path, entries, core.Options{})
	c := &repro.Corpus{Reports: []*core.DatasetReport{rep}, Total: rep}
	return []string{
		repro.Table1(c), repro.RepeatRates(c), repro.Table2(c), repro.Figure1(c), repro.Table3(c),
		repro.Section44(c), repro.Figure5(c), repro.Table4(c), repro.Section61(c), repro.Section62(c),
		repro.Table5(c),
	}, rep, nil
}

// matches reports whether every expected section appears in out.
func matches(out []byte, sections []string) bool {
	for _, s := range sections {
		if !bytes.Contains(out, []byte(s)) {
			return false
		}
	}
	return true
}

// studyInputs writes the Apache log, its slices and a one-entry log.
func studyInputs(env *runEnv) (full string, entries int, sliceLogs []string, tiny string, err error) {
	full = filepath.Join(env.dir, "study.log")
	if entries, err = writeApacheLog(full, env.seed); err != nil {
		return
	}
	sdir := filepath.Join(env.dir, "slices")
	if err = os.MkdirAll(sdir, 0o755); err != nil {
		return
	}
	if sliceLogs, err = splitLog(full, sdir, sliceEntries); err != nil {
		return
	}
	tiny = filepath.Join(env.dir, "one.log")
	err = os.WriteFile(tiny, []byte("1.2.3.4 - - [17/Oct/2017:10:00:00 +0000] \"GET /sparql?query=ASK%7B%7D HTTP/1.1\" 200 1\n"), 0o644)
	return
}

// studyWorkload runs sparqlanalyze as a batch job: whole-log jobs give
// entries per second and peak memory; short jobs over 125-entry slices,
// one after another, give job latency and jobs per second. Set-up is
// the start-to-exit time over a one-entry log.
func studyWorkload(ctx context.Context, env *runEnv) (*result, error) {
	full, entries, sliceLogs, tiny, err := studyInputs(env)
	if err != nil {
		return nil, err
	}
	env.phase("generate inputs")
	var setup []float64
	for i := 0; i < studySetupRuns; i++ {
		_, d, _, err := analyzeJob(ctx, env.analyze, tiny)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
	}
	env.phase("set-up")

	// Whole-log jobs alternate with runs of slice jobs as long as the
	// whole-log job before them, so that both kinds sample the whole
	// run while the host's speed drifts.
	res := &result{}
	var first []byte
	var rates, rss, lat []float64
	outs := make([][]byte, len(sliceLogs))
	var sliceWall time.Duration
	next := 0
	budget := time.Duration(env.seconds * float64(time.Second))
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < budget {
		out, d, r, err := analyzeJob(ctx, env.analyze, full)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if first == nil {
			first = out
		} else if !bytes.Equal(out, first) {
			res.failed++
			env.logf("FAIL whole-log job output differs from the first run")
		}
		rates = append(rates, float64(entries)/d.Seconds())
		rss = append(rss, r)

		t0 := time.Now()
		for time.Since(t0) < d && ctx.Err() == nil {
			i := next % len(sliceLogs)
			next++
			res.attempted++
			out, d, _, err := analyzeJob(ctx, env.analyze, sliceLogs[i])
			if err != nil {
				env.logf("FAIL %v", err)
				res.failed++
				continue
			}
			lat = append(lat, float64(d)/1e6)
			if outs[i] == nil {
				outs[i] = out
			}
		}
		sliceWall += time.Since(t0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	env.phase(fmt.Sprintf("%d whole-log jobs, %d slice jobs", len(rates), len(lat)))

	res.failed += verifyStudy(env, full, first, sliceLogs, outs)
	env.phase("verify")

	res.add("setup_s", median(setup), "s")
	res.add("p50_ms", quantile(lat, 0.5), "ms")
	res.add("p99_ms", quantile(lat, 0.99), "ms")
	res.add("rps", float64(len(lat))/sliceWall.Seconds(), "1/s")
	// As in the serve workloads, throughput takes the upper quartile.
	res.add("entries_per_s", quantile(rates, 0.75), "1/s")
	res.add("rss_peak_mb", median(rss), "MB")
	return res, nil
}

// studySetupRuns is how many one-entry jobs measure the analyzer's
// set-up; a job takes milliseconds, so more runs steady the median.
const studySetupRuns = 21

// verifyStudy checks the whole-log report and every slice report that
// ran against in-process core.AnalyzeLog, the whole log and the slices
// on two goroutines. It returns the number of mismatches.
func verifyStudy(env *runEnv, full string, first []byte, sliceLogs []string, outs [][]byte) int {
	var failed atomic.Int64
	check := func(path string, out []byte) *core.DatasetReport {
		want, rep, err := expectedReport(path)
		if err != nil || !matches(out, want) {
			failed.Add(1)
			env.logf("FAIL report for %s differs from in-process core.AnalyzeLog (%v)", filepath.Base(path), err)
		}
		return rep
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rep := check(full, first); rep != nil {
			n := float64(rep.NoiseRemoved + rep.Total)
			env.logf("workload study-log: %d entries; noise share %.3f, invalid share %.3f, exact-repeat share of valid %.3f",
				int(n), float64(rep.NoiseRemoved)/n, float64(rep.Total-rep.Valid)/n, 1-ratio(float64(rep.Unique), float64(rep.Valid)))
		}
	}()
	for i, out := range outs {
		if out != nil {
			check(sliceLogs[i], out)
		}
	}
	wg.Wait()
	return int(failed.Load())
}

// studyTrace times the analysis layers in process over the same log:
// an instrumented serial replay of the streaming worker's steps
// (decode and clean, exact dedup, parse, the paper's analyses), then
// core.StreamAnalyzer with one worker over the file as the whole.
func studyTrace(ctx context.Context, env *runEnv) (*result, error) {
	full, entries, _, _, err := studyInputs(env)
	if err != nil {
		return nil, err
	}
	env.phase("generate inputs")
	f, err := os.Open(full)
	if err != nil {
		return nil, err
	}
	sp := spans{}
	seen := map[string]bool{}
	parser := &sparql.Parser{}
	t5 := paths.NewTable5()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var instrumented time.Duration
	for sc.Scan() {
		t0 := time.Now()
		raw := core.DecodeEntry(sc.Text(), core.FormatApache)
		query := looksLikeQuery(raw)
		t1 := time.Now()
		sp.add("core.decode", t1.Sub(t0))
		instrumented += t1.Sub(t0)
		if !query || seen[raw] {
			continue
		}
		q, err := parser.Parse(raw)
		t2 := time.Now()
		sp.add("sparql.parse", t2.Sub(t1))
		instrumented += t2.Sub(t1)
		if err != nil {
			continue
		}
		seen[raw] = true
		instrumented += analyzeTraced(q, sp, t5)
	}
	f.Close()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	env.phase("instrumented pass")

	f, err = os.Open(full)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	_, err = (&core.StreamAnalyzer{Workers: 1}).AnalyzeReader(full, f, core.FormatApache)
	stream := time.Since(t0)
	f.Close()
	if err != nil {
		return nil, err
	}
	env.phase("core.stream")

	res := &result{attempted: entries}
	for _, name := range []string{"core.decode", "sparql.parse", "analysis", "shapes", "hypergraph", "paths"} {
		res.add(name+".p50_us", sp.p50us(name), "us")
		res.add(name+".share", ratio(float64(sp.total(name)), float64(instrumented)), "1")
	}
	res.add("core.stream.p50_us", float64(stream)/1e3/float64(entries), "us")
	res.add("core.stream.share", ratio(float64(stream), float64(instrumented)), "1")
	addServeZeros(res)
	return res, nil
}

// looksLikeQuery is the pipeline's cleaning test: entries without a
// query-form keyword are noise.
func looksLikeQuery(entry string) bool {
	up := strings.ToUpper(entry)
	for _, kw := range []string{"SELECT", "ASK", "CONSTRUCT", "DESCRIBE"} {
		if strings.Contains(up, kw) {
			return true
		}
	}
	return false
}

// analyzeTraced makes the calls the pipeline makes for one unique
// query, in its order, timing the shape analyses, the hypergraph width
// analysis and the path classification apart from the rest.
func analyzeTraced(q *sparql.Query, sp spans, t5 *paths.Table5) time.Duration {
	var sum time.Duration
	mark := time.Now()
	lap := func(name string) {
		now := time.Now()
		sp.add(name, now.Sub(mark))
		sum += now.Sub(mark)
		mark = now
	}
	_ = core.RepeatShape(q)
	_ = analysis.QueryKeywords(q)
	lap("analysis")
	if pps := q.PathPatterns(); len(pps) > 0 {
		for _, pp := range pps {
			t5.Add(pp.Path)
		}
		lap("paths")
	}
	if q.Type != sparql.SelectQuery && q.Type != sparql.AskQuery {
		return sum
	}
	_ = analysis.TripleCount(q)
	_ = analysis.Operators(q)
	_ = analysis.Projection(q)
	_ = analysis.UsesSubqueries(q)
	frag := analysis.ClassifyFragments(q)
	if !frag.AOF {
		lap("analysis")
		return sum
	}
	triples := q.Triples()
	collapses := analysis.EqualityCollapses(q)
	lap("analysis")
	if frag.HasVarPredicate {
		if frag.CQOF {
			h := shapes.CanonicalHypergraph(triples, shapes.Options{CollapseEqual: collapses})
			_, _ = h.GHW(3)
			lap("hypergraph")
		}
		return sum
	}
	classify := func(o shapes.Options) {
		g, _ := shapes.CanonicalGraph(triples, o)
		_ = shapes.Classify(g)
	}
	if frag.CQ {
		classify(shapes.Options{})
		classify(shapes.Options{ExcludeConstants: true})
	}
	if frag.CQF {
		classify(shapes.Options{CollapseEqual: collapses})
	}
	if frag.CQOF {
		classify(shapes.Options{CollapseEqual: collapses})
	}
	lap("shapes")
	return sum
}

// perLayerServe and perLayerStudy name the per-layer metrics each kind
// of traced run measures; the other kind reports them as zero.
var perLayerStudy = []string{
	"core.decode.p50_us", "core.decode.share", "analysis.p50_us", "analysis.share",
	"shapes.p50_us", "shapes.share", "hypergraph.p50_us", "hypergraph.share",
	"paths.p50_us", "paths.share", "core.stream.p50_us", "core.stream.share",
}

var perLayerServe = []string{
	"core.add.p50_us", "core.add.share", "lint.run.p50_us", "lint.run.share",
	"eval.hit.p50_us", "eval.hit.share", "eval.miss.p50_us", "eval.miss.share",
	"qcache.body.p50_us", "qcache.body.share", "server.self.p50_us", "server.self.share",
	"request.p50_us", "pass1.p50_us",
	"rdf.load.p50_us", "rdf.load.share", "rdf.freeze.p50_us", "rdf.freeze.share", "rdf.heap_mb",
	"server.bytes_per_req", "exec.probes_per_row", "exec.parallel_share",
	"plan.hit_ratio", "pathcomp.hit_ratio",
	"qcache.hit_ratio", "qcache.body_hit_ratio", "qcache.reject_ratio", "qcache.evictions",
	"core.heap_growth_mb", "core.unique_ratio",
	"served.qcache.hit_ratio", "served.qcache.body_hit_ratio", "served.qcache.reject_ratio",
	"served.qcache.evictions", "served.plan.hit_ratio", "served.pathcomp.hit_ratio",
	"served.rejected", "served.timeouts",
	"loadgen.late_p99_ms", "trace.overhead_pct",
}

func addStudyZeros(res *result) {
	for _, n := range perLayerStudy {
		res.add(n, 0, unitOf(n))
	}
}

func addServeZeros(res *result) {
	for _, n := range perLayerServe {
		res.add(n, 0, unitOf(n))
	}
}

// unitOf gives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "evictions"), strings.HasSuffix(name, "rejected"), strings.HasSuffix(name, "timeouts"):
		return "count"
	case name == "server.bytes_per_req":
		return "B"
	}
	return "1"
}
