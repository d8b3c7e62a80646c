package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"time"

	"sparqlog/internal/core"
	"sparqlog/internal/eval"
	"sparqlog/internal/lint"
	"sparqlog/internal/pathcomp"
	"sparqlog/internal/plan"
	"sparqlog/internal/qcache"
	"sparqlog/internal/rdf"
	"sparqlog/internal/server"
	"sparqlog/internal/service"
	"sparqlog/internal/sparql"
)

// sparqld's defaults, which the traced stacks reproduce.
const (
	serverTimeout = 30 * time.Second
	ctJSON        = "application/sparql-results+json"
)

// maxTraced caps the requests the traced passes replay.
const maxTraced = 2000

// spans collects per-request span durations by name.
type spans map[string][]time.Duration

func (s spans) add(name string, d time.Duration) { s[name] = append(s[name], d) }

func (s spans) total(name string) time.Duration {
	var t time.Duration
	for _, d := range s[name] {
		t += d
	}
	return t
}

func (s spans) p50us(name string) float64 {
	xs := make([]float64, len(s[name]))
	for i, d := range s[name] {
		xs[i] = float64(d) / 1e3
	}
	return median(xs)
}

// serveStack is the handler's call chain built as server.New builds it,
// for pass 1, which calls each layer directly in the handler's order.
type serveStack struct {
	an    *core.LiveAnalyzer
	ex    *service.Executor
	qc    *qcache.Cache
	plans *plan.Cache
	paths *pathcomp.Cache
}

func newServeStack(sn *rdf.Snapshot) *serveStack {
	s := &serveStack{
		an:    core.NewLiveAnalyzer("sparqld", core.Options{Lint: true}, 0),
		qc:    qcache.New(sn, qcache.Options{}),
		plans: plan.NewCache(sn),
		paths: pathcomp.NewCache(sn),
	}
	s.ex = service.NewExecutor(sn, service.ExecutorOptions{
		Timeout: serverTimeout, Plans: s.plans, Paths: s.paths, Results: s.qc,
		Limits: eval.Limits{MaxRows: serverMaxRows}, MaxConcurrent: 2 * runtime.GOMAXPROCS(0),
	})
	return s
}

func newServer(sn *rdf.Snapshot) http.Handler {
	return server.New(server.Config{
		Snapshot: sn, Timeout: serverTimeout, MaxInFlight: 2 * runtime.GOMAXPROCS(0),
		QueueDepth: 64, Limits: eval.Limits{MaxRows: serverMaxRows},
	}).Handler()
}

// layerCounts are pass 1's work counts on the executor and caches.
type layerCounts struct {
	misses, parallel int
	probes, rows     int64
}

// pass1 runs one request through the layers the handler calls, timing
// each: self-analysis, parse, lint, execution (split by whether the
// result cache answered) and the serialized-body lookup. A body the
// cache lacks is serialized and attached untimed, as the handler would.
func (s *serveStack) pass1(ctx context.Context, raw string, sp spans, lc *layerCounts) time.Duration {
	var sum time.Duration
	mark := time.Now()
	lap := func(name string) {
		now := time.Now()
		d := now.Sub(mark)
		if sp != nil {
			sp.add(name, d)
		}
		sum += d
		mark = now
	}
	s.an.Add(raw)
	lap("core.add")
	q, err := sparql.Parse(raw)
	lap("sparql.parse")
	if err != nil {
		return sum
	}
	_ = lint.Run(q).Codes()
	lap("lint.run")
	res, out := s.ex.Execute(ctx, q)
	if out.Cached || out.Collapsed {
		lap("eval.hit")
	} else {
		lap("eval.miss")
		if lc != nil && res != nil {
			lc.misses++
			lc.probes += res.Probes
			lc.rows += int64(len(res.Rows))
			if res.Parallel != nil {
				lc.parallel++
			}
		}
	}
	if out.Err != nil || res.CacheKey == "" {
		return sum
	}
	_, _, ok := s.qc.Body(res.CacheKey, ctJSON)
	lap("qcache.body")
	if !ok {
		s.qc.SetBody(res.CacheKey, ctJSON, jsonBody(res, q.Type == sparql.AskQuery))
	}
	return sum
}

// jsonBody renders a result in the SPARQL JSON results format, so the
// bodies pass 1 attaches to cache entries weigh what the server's do.
func jsonBody(res *eval.Result, isAsk bool) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if isAsk {
		_ = enc.Encode(map[string]any{"head": map[string]any{}, "boolean": res.Bool})
		return b.Bytes()
	}
	type term struct {
		Type  string `json:"type"`
		Value string `json:"value"`
	}
	bindings := make([]map[string]term, len(res.Rows))
	for i, row := range res.Rows {
		m := make(map[string]term, len(row))
		for j, v := range row {
			switch {
			case v == eval.Unbound:
			case strings.HasPrefix(v, "_:"):
				m[res.Vars[j]] = term{"bnode", v[2:]}
			case strings.Contains(v, ":") && !strings.ContainsAny(v, " \"<>"):
				m[res.Vars[j]] = term{"uri", v}
			default:
				m[res.Vars[j]] = term{"literal", v}
			}
		}
		bindings[i] = m
	}
	_ = enc.Encode(map[string]any{"head": map[string]any{"vars": res.Vars}, "results": map[string]any{"bindings": bindings}})
	return b.Bytes()
}

// countingWriter is a ResponseWriter that discards the body, counting
// its bytes, so pass 2 pays for producing a response but not for
// buffering it.
type countingWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *countingWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}
func (w *countingWriter) WriteHeader(s int)           { w.status = s }
func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// requests builds pass 2's GET requests for a stream.
func requests(texts []string, seq []int32) []*http.Request {
	out := make([]*http.Request, len(seq))
	for i, id := range seq {
		out[i] = httptest.NewRequest(http.MethodGet, "/query?query="+url.QueryEscape(texts[id]), nil)
	}
	return out
}

// heapMB returns the live heap after a collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serveTrace is the traced run of a serve workload. It repeats the
// untraced run's served phases to record the generator's lateness and
// the server's own counters, then replays the start of the timed
// stream in process: pass 1 calls the handler's layers one by one, pass 2 sends
// the same stream through Server.Handler, each on a fresh stack, and a
// third pass repeats pass 2 without per-request clocks to price the
// tracing itself.
func serveTrace(ctx context.Context, env *runEnv) (*result, error) {
	spec := serveSpecs[env.workload]
	in, err := makeServeInputs(env.workload, env.dir, env.seed, streamLen(env.workload))
	if err != nil {
		return nil, err
	}
	env.phase("generate inputs")
	srv, c, sr, err := runServe(ctx, env, in, spec, env.seconds, 1)
	if err != nil {
		return nil, err
	}
	c.close()
	srv.stop()

	res := &result{}
	addServed(res, sr)
	late := make([]float64, len(sr.open))
	for i, r := range sr.open {
		late[i] = float64(r.late) / 1e6
	}
	res.add("loadgen.late_p99_ms", quantile(late, 0.99), "ms")

	before := heapMB()
	sn, load, freeze, err := loadSnapshot(in.graph)
	if err != nil {
		return nil, err
	}
	res.add("rdf.heap_mb", heapMB()-before, "MB")
	setup := float64(load + freeze)
	res.add("rdf.load.p50_us", float64(load)/1e3, "us")
	res.add("rdf.load.share", float64(load)/setup, "1")
	res.add("rdf.freeze.p50_us", float64(freeze)/1e3, "us")
	res.add("rdf.freeze.share", float64(freeze)/setup, "1")

	warm := in.seq[:in.warm]
	n := min(len(sr.open), maxTraced)
	stream := in.seq[in.warm : in.warm+n]
	res.attempted = n

	// Pass 1: the handler's layers, called directly.
	st := newServeStack(sn)
	for _, id := range warm {
		st.pass1(ctx, in.texts[id], nil, nil)
	}
	qh, qm, qb, qr, qe := st.qc.Hits(), st.qc.Misses(), st.qc.BodyHits(), st.qc.Rejected(), st.qc.Evictions()
	ph, pm, xh, xm := st.plans.Hits(), st.plans.Misses(), st.paths.Hits(), st.paths.Misses()
	sp := spans{}
	var lc layerCounts
	p1 := make([]time.Duration, n)
	for i, id := range stream {
		p1[i] = st.pass1(ctx, in.texts[id], sp, &lc)
	}
	hits, misses := st.qc.Hits()-qh, st.qc.Misses()-qm
	res.add("qcache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "1")
	res.add("qcache.body_hit_ratio", ratio(float64(st.qc.BodyHits()-qb), float64(hits+misses)), "1")
	res.add("qcache.reject_ratio", ratio(float64(st.qc.Rejected()-qr), float64(misses)), "1")
	res.add("qcache.evictions", float64(st.qc.Evictions()-qe), "count")
	res.add("plan.hit_ratio", ratio(float64(st.plans.Hits()-ph), float64(st.plans.Hits()-ph+st.plans.Misses()-pm)), "1")
	res.add("pathcomp.hit_ratio", ratio(float64(st.paths.Hits()-xh), float64(st.paths.Hits()-xh+st.paths.Misses()-xm)), "1")
	res.add("exec.probes_per_row", ratio(float64(lc.probes), float64(lc.rows)), "1")
	res.add("exec.parallel_share", ratio(float64(lc.parallel), float64(lc.misses)), "1")
	rep := st.an.Report()
	res.add("core.unique_ratio", ratio(float64(rep.Unique), float64(rep.Valid)), "1")
	st = nil
	env.phase("pass 1")

	// Self-analysis memory: the analyzer alone, fed the same requests,
	// weighed as the heap it holds once the feed's garbage is collected.
	res.add("core.heap_growth_mb", analyzerHeapMB(in.texts, in.seq[:in.warm+n]), "MB")

	// Pass 2: the same stream through the whole handler.
	h := newServer(sn)
	for _, r := range requests(in.texts, warm) {
		h.ServeHTTP(&countingWriter{}, r)
	}
	reqs := requests(in.texts, stream)
	p2 := make([]time.Duration, n)
	var bytesOut int64
	for i, r := range reqs {
		w := &countingWriter{}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		p2[i] = time.Since(t0)
		bytesOut += w.n
	}
	env.phase("pass 2")

	// Pass 3: pass 2 again on a fresh stack with one clock for the lot.
	h = newServer(sn)
	for _, r := range requests(in.texts, warm) {
		h.ServeHTTP(&countingWriter{}, r)
	}
	reqs = requests(in.texts, stream)
	t0 := time.Now()
	for _, r := range reqs {
		h.ServeHTTP(&countingWriter{}, r)
	}
	untraced := time.Since(t0)
	env.phase("pass 3")

	var total2 time.Duration
	for i := range p2 {
		total2 += p2[i]
		sp.add("server.self", p2[i]-p1[i])
		sp.add("request", p2[i])
		sp.add("pass1", p1[i])
	}
	for _, name := range []string{"core.add", "sparql.parse", "lint.run", "eval.hit", "eval.miss", "qcache.body", "server.self", "request", "pass1"} {
		res.add(name+".p50_us", sp.p50us(name), "us")
		if name != "request" && name != "pass1" {
			res.add(name+".share", ratio(float64(sp.total(name)), float64(total2)), "1")
		}
	}
	res.add("server.bytes_per_req", ratio(float64(bytesOut), float64(n)), "B")
	res.add("trace.overhead_pct", 100*ratio(float64(total2-untraced), float64(untraced)), "%")
	addStudyZeros(res)
	return res, nil
}

// analyzerHeapMB feeds the requests to a fresh LiveAnalyzer and returns
// the live heap it retains, in MiB.
func analyzerHeapMB(texts []string, seq []int32) float64 {
	an := core.NewLiveAnalyzer("sparqld", core.Options{Lint: true}, 0)
	for _, id := range seq {
		an.Add(texts[id])
	}
	with := heapMB()
	runtime.KeepAlive(an)
	return with - heapMB()
}

// addServed records the untraced server's counters, scraped at the end
// of the served phases, beside the traced counts.
func addServed(res *result, sr *serveResult) {
	m := sr.scraped
	hits, misses := m["sparqld_result_cache_hits_total"], m["sparqld_result_cache_misses_total"]
	res.add("served.qcache.hit_ratio", ratio(hits, hits+misses), "1")
	res.add("served.qcache.body_hit_ratio", ratio(m["sparqld_result_cache_body_hits_total"], hits+misses), "1")
	res.add("served.qcache.reject_ratio", ratio(m["sparqld_result_cache_rejected_total"], misses), "1")
	res.add("served.qcache.evictions", m["sparqld_result_cache_evictions_total"], "count")
	ph, pm := m["sparqld_plan_cache_hits_total"], m["sparqld_plan_cache_misses_total"]
	res.add("served.plan.hit_ratio", ratio(ph, ph+pm), "1")
	xh, xm := m["sparqld_path_cache_hits_total"], m["sparqld_path_cache_misses_total"]
	res.add("served.pathcomp.hit_ratio", ratio(xh, xh+xm), "1")
	res.add("served.rejected", m["sparqld_queries_rejected_total"], "count")
	res.add("served.timeouts", m["sparqld_query_timeouts_total"], "count")
}
