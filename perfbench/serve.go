package main

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
)

// serveSpec fixes one serve workload's load shape.
type serveSpec struct {
	// rate is the open-loop Poisson rate in requests per second, a
	// seventh to a tenth of the closed-loop rps measured at the commit
	// that defined the benchmark, so that the open loop leaves the two
	// connections slack and one stall does not queue dozens of
	// requests behind it.
	rate float64
	// warm is the number of untimed warm-up requests.
	warm int
}

var serveSpecs = map[string]serveSpec{
	"serve-log": {rate: 100, warm: 300},
	"serve-bib": {rate: 200, warm: 200},
	"serve-hot": {rate: 1000, warm: 400},
}

// The timed phases run as at least minSegments rounds, each opening
// with an open-loop segment of segmentSize requests. On a shared host,
// CPU taken by neighbours comes and goes over seconds and inflates the
// latencies of the segments it lands on. So each percentile is taken
// over the pooled requests of the quarter of the segments where that
// percentile is lowest, as a microbenchmark takes its fastest run.
// Pooling at least five segments keeps p99 resting on more than a
// thousand samples.
const (
	minSegments = 20
	segmentSize = 250
)

// openPercentiles returns p50 and p99 in ms over the open loop's
// quieter segments, and each segment's p50 and p99 for the report.
func openPercentiles(open []record) (p50, p99 float64, perSegment [][2]float64) {
	var segs [][]float64
	for s := 0; s+segmentSize <= len(open); s += segmentSize {
		lat := make([]float64, segmentSize)
		for i, r := range open[s : s+segmentSize] {
			lat[i] = float64(r.latency) / 1e6
		}
		segs = append(segs, lat)
		perSegment = append(perSegment, [2]float64{quantile(lat, 0.5), quantile(lat, 0.99)})
	}
	quiet := func(q float64) float64 {
		byQ := slices.Clone(segs)
		slices.SortStableFunc(byQ, func(a, b []float64) int { return cmp.Compare(quantile(a, q), quantile(b, q)) })
		var pool []float64
		for _, s := range byQ[:(len(byQ)+3)/4] {
			pool = append(pool, s...)
		}
		return quantile(pool, q)
	}
	return quiet(0.5), quiet(0.99), perSegment
}

// serveInputs is one serve workload's generated input: the N-Triples
// graph and a request stream over distinct texts.
type serveInputs struct {
	graph string   // N-Triples file
	texts []string // distinct query texts
	seq   []int32  // the request stream as indexes into texts; warm-up first
	warm  int
	hot   []int32 // serve-hot's working set
}

func makeServeInputs(workload, dir string, seed int64, streamLen int) (*serveInputs, error) {
	in := &serveInputs{graph: filepath.Join(dir, "bib.nt"), warm: serveSpecs[workload].warm}
	g, err := writeGraph(in.graph)
	if err != nil {
		return nil, err
	}
	var stream []string
	switch workload {
	case "serve-log":
		stream = logStream(streamLen, seed)
	case "serve-bib":
		if stream, err = bibStream(g, streamLen, seed); err != nil {
			return nil, err
		}
	case "serve-hot":
		set := hotSet(seed)
		// The warm-up touches every hot text once, so the timed phases
		// see the cache-hit path from their first request.
		stream = append(slices.Clone(set), hotStream(set, streamLen, seed)...)
	}
	index := map[string]int32{}
	for _, s := range stream {
		id, ok := index[s]
		if !ok {
			id = int32(len(in.texts))
			index[s] = id
			in.texts = append(in.texts, s)
		}
		in.seq = append(in.seq, id)
	}
	if workload == "serve-hot" {
		in.hot = in.seq[:hotTexts]
	}
	return in, nil
}

// loadSnapshot loads the N-Triples file exactly as sparqld does,
// returning the load and freeze times.
func loadSnapshot(path string) (*rdf.Snapshot, time.Duration, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	t0 := time.Now()
	st := rdf.NewStore()
	if _, err := st.ReadNTriples(f); err != nil {
		return nil, 0, 0, fmt.Errorf("load %s: %w", path, err)
	}
	t1 := time.Now()
	sn := st.Freeze()
	return sn, t1.Sub(t0), time.Since(t1), nil
}

// checkHotCosts fails set-up when a serve-hot text's uncached serial
// cost is under four times the cache's admission threshold: near the
// threshold, admission depends on timing noise and hit counts swing
// between identical runs.
func checkHotCosts(ctx context.Context, sn *rdf.Snapshot, in *serveInputs) error {
	floor := 4 * qcache.DefaultMinCost
	for _, id := range in.hot {
		best := time.Duration(-1)
		for i := 0; i < 3; i++ {
			r := evaluate(ctx, sn, in.texts[id], maphash.MakeSeed())
			if r.status != 200 {
				return fmt.Errorf("serve-hot text %d fails with status %d", id, r.status)
			}
			if best < 0 || r.cost < best {
				best = r.cost
			}
		}
		if best < floor {
			return fmt.Errorf("serve-hot text %d costs %v uncached, under 4x the admission threshold (%v): %s", id, best, floor, in.texts[id])
		}
	}
	return nil
}

// serveResult is what one serve run measured.
type serveResult struct {
	setup       []time.Duration
	open        []record // the open-loop segments, in order
	closed      []record
	closedRates []float64 // each round's closed-loop completions per second
	entries     float64   // self-analysis entries taken in during the timed rounds
	rssMB       float64
	scraped     map[string]float64
}

// runServe starts the server (several times, for set-up), warms it up,
// runs the timed rounds, and scrapes /metrics and VmHWM. Each round is
// an open-loop segment of segmentSize requests followed by a closed-loop
// burst, so that both loops sample the whole run: a shared host's speed
// drifts over seconds, and a run split into one open and one closed half
// would let each loop catch a different drift. The server is left
// running for verification; the caller stops it.
func runServe(ctx context.Context, env *runEnv, in *serveInputs, spec serveSpec, seconds float64, starts int) (*sparqld, *loadClient, *serveResult, error) {
	res := &serveResult{}
	var srv *sparqld
	for i := 0; i < starts; i++ {
		s, d, err := startServer(env.sparqld, in.graph, filepath.Join(env.dir, "sparqld.log"))
		if err != nil {
			return nil, nil, nil, err
		}
		res.setup = append(res.setup, d)
		if i < starts-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	env.phase("set-up")
	conns := runtime.NumCPU()
	c := newLoadClient(srv.base, in.texts, conns)
	c.closedLoop(ctx, in.seq, 0, 0, in.warm)
	env.phase("warm-up")

	rounds := max(int(spec.rate*seconds/2)/segmentSize, minSegments)
	// A closed burst stops after its share of the time or of the stream
	// left after the open segments, whichever comes first; the stream
	// is never repeated, which would turn serve-bib's misses into hits.
	spare := len(in.seq) - in.warm - rounds*segmentSize
	if spare < rounds {
		srv.stop()
		return nil, nil, nil, fmt.Errorf("stream of %d requests too short for %d warm-up and %d rounds", len(in.seq), in.warm, rounds)
	}
	burst := time.Duration(seconds / 2 / float64(rounds) * float64(time.Second))
	before, err := scrapeMetrics(ctx, c.http, srv.base)
	if err != nil {
		srv.stop()
		return nil, nil, nil, err
	}
	next := in.warm
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		res.open = append(res.open, c.openLoop(ctx, in.seq, next, segmentSize, spec.rate, env.seed+int64(r))...)
		next += segmentSize
		recs, wall := c.closedLoop(ctx, in.seq, next, burst, spare/rounds)
		next += len(recs)
		res.closed = append(res.closed, recs...)
		res.closedRates = append(res.closedRates, float64(len(recs))/wall.Seconds())
	}
	if err := ctx.Err(); err != nil {
		srv.stop()
		return nil, nil, nil, err
	}
	if res.rssMB, err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		srv.stop()
		return nil, nil, nil, err
	}
	if res.scraped, err = scrapeMetrics(ctx, c.http, srv.base); err != nil {
		srv.stop()
		return nil, nil, nil, err
	}
	res.entries = res.scraped["sparqld_log_entries_total"] - before["sparqld_log_entries_total"]
	env.phase(fmt.Sprintf("%d timed rounds", rounds))
	return srv, c, res, nil
}

// timedTexts lists the distinct texts the timed phases sent.
func timedTexts(recs ...[]record) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, rs := range recs {
		for _, r := range rs {
			if !seen[r.text] {
				seen[r.text] = true
				out = append(out, r.text)
			}
		}
	}
	return out
}

// serveWorkload runs one untraced serve measurement and returns the
// end-to-end metrics.
func serveWorkload(ctx context.Context, env *runEnv) (*result, error) {
	spec := serveSpecs[env.workload]
	in, err := makeServeInputs(env.workload, env.dir, env.seed, streamLen(env.workload))
	if err != nil {
		return nil, err
	}
	env.phase("generate inputs")
	sn, _, _, err := loadSnapshot(in.graph)
	if err != nil {
		return nil, err
	}
	if in.hot != nil {
		if err := checkHotCosts(ctx, sn, in); err != nil {
			return nil, err
		}
	}
	env.phase("load reference data")
	srv, c, sr, err := runServe(ctx, env, in, spec, env.seconds, setupStarts)
	if err != nil {
		return nil, err
	}
	sent := timedTexts(sr.open, sr.closed)
	refs := verify(ctx, c, sn, in.texts, sent)
	c.close()
	srv.stop()
	env.phase("verify")

	all := append(slices.Clone(sr.open), sr.closed...)
	failed, why := checkRecords(all, refs, in.texts)
	for _, w := range why {
		env.logf("FAIL %s", w)
	}
	printServeReport(env, in, sr, refs)

	p50, p99, _ := openPercentiles(sr.open)
	// Throughput takes the upper quartile of the rounds' rates, for the
	// same reason latency takes the quieter segments.
	rps := quantile(sr.closedRates, 0.75)
	res := &result{attempted: len(all), failed: failed}
	res.add("setup_s", median(durSeconds(sr.setup)), "s")
	res.add("p50_ms", p50, "ms")
	res.add("p99_ms", p99, "ms")
	res.add("rps", rps, "1/s")
	res.add("entries_per_s", rps*ratio(sr.entries, float64(len(all))), "1/s")
	res.add("rss_peak_mb", sr.rssMB, "MB")
	return res, nil
}

// streamLen is how many requests a workload's stream holds: enough for
// warm-up, the open loop and a closed loop at several times today's
// rate. The closed loop stops at the end of the stream rather than
// repeat it, which would turn serve-bib's misses into hits.
func streamLen(workload string) int {
	switch workload {
	case "serve-bib":
		return 14000
	case "serve-hot":
		return 150000
	}
	return 20000
}

// printServeReport writes the workload property report and the scraped
// server counters to standard error.
func printServeReport(env *runEnv, in *serveInputs, sr *serveResult, refs map[int32]*reference) {
	all := append(slices.Clone(sr.open), sr.closed...)
	distinct := map[int32]bool{}
	invalid, admissible := 0, 0
	var rows, bytes, costs []float64
	for _, r := range all {
		distinct[r.text] = true
		ref := refs[r.text]
		if ref == nil {
			continue
		}
		if ref.status == 400 {
			invalid++
		}
		if ref.status == 200 && ref.cost >= qcache.DefaultMinCost {
			admissible++
		}
		rows = append(rows, float64(ref.ans.rows))
		bytes = append(bytes, float64(ref.bytes))
		costs = append(costs, float64(ref.cost)/1e6)
	}
	var working int64
	for id := range distinct {
		if ref := refs[id]; ref != nil && ref.status == 200 && ref.cost >= qcache.DefaultMinCost {
			working += ref.bytes + int64(ref.ans.rows)*int64(len(ref.ans.vars))*4
		}
	}
	n := float64(len(all))
	env.logf("workload %s: %d timed requests, %d distinct texts", env.workload, len(all), len(distinct))
	env.logf("  exact-repeat share %.3f, invalid share %.3f", 1-float64(len(distinct))/n, float64(invalid)/n)
	env.logf("  uncached cost >= admission threshold (%v): %.3f of requests", qcache.DefaultMinCost, float64(admissible)/n)
	env.logf("  rows per request  p50 %.0f p90 %.0f p99 %.0f max %.0f", quantile(rows, .5), quantile(rows, .9), quantile(rows, .99), quantile(rows, 1))
	env.logf("  bytes per request p50 %.0f p90 %.0f p99 %.0f max %.0f", quantile(bytes, .5), quantile(bytes, .9), quantile(bytes, .99), quantile(bytes, 1))
	env.logf("  uncached cost ms  p50 %.3f p90 %.3f p99 %.3f max %.3f", quantile(costs, .5), quantile(costs, .9), quantile(costs, .99), quantile(costs, 1))
	env.logf("  admissible working set ~%.1f MiB against a %d MiB cache budget", float64(working)/(1<<20), qcache.DefaultMaxBytes>>20)
	lat := make([]float64, len(sr.open))
	for i, r := range sr.open {
		lat[i] = float64(r.late) / 1e6
	}
	env.logf("  open loop: %d requests, generator late p99 %.3f ms", len(sr.open), quantile(lat, .99))
	env.logf("  closed loop: %d requests in %d bursts, burst rate p25 %.0f p50 %.0f p75 %.0f /s", len(sr.closed), len(sr.closedRates),
		quantile(sr.closedRates, .25), quantile(sr.closedRates, .5), quantile(sr.closedRates, .75))
	_, _, segs := openPercentiles(sr.open)
	env.logf("  open-loop segments (p50/p99 ms): %.2f", segs)
	for _, k := range scrapeKeys {
		env.logf("  /metrics %s = %g", k, sr.scraped[k])
	}
}

// scrapeKeys are the server counters recorded at the end of each run:
// result, plan and path caches, rejections and timeouts.
var scrapeKeys = []string{
	"sparqld_result_cache_hits_total", "sparqld_result_cache_misses_total",
	"sparqld_result_cache_body_hits_total", "sparqld_result_cache_rejected_total",
	"sparqld_result_cache_evictions_total", "sparqld_result_cache_bytes",
	"sparqld_plan_cache_hits_total", "sparqld_plan_cache_misses_total",
	"sparqld_path_cache_hits_total", "sparqld_path_cache_misses_total",
	"sparqld_queries_rejected_total", "sparqld_query_timeouts_total",
}
