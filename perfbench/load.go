package main

import (
	"context"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// record is one timed request's outcome.
type record struct {
	text    int32 // index into the workload's distinct texts
	status  int   // HTTP status, 0 on a transport error
	hash    uint64
	bytes   int64
	latency time.Duration // scheduled (open loop) or actual (closed loop) send to last body byte
	late    time.Duration // open loop: actual send minus scheduled send
}

// loadClient drives one server over at most conns keep-alive
// connections. Bodies are read to the last byte and hashed, so every
// timed response can be checked against the verification pass.
type loadClient struct {
	http  *http.Client
	urls  []string // per distinct text: the GET /query URL
	seed  maphash.Seed
	conns int
}

func newLoadClient(base string, texts []string, conns int) *loadClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	urls := make([]string, len(texts))
	for i, t := range texts {
		urls[i] = base + "/query?query=" + url.QueryEscape(t)
	}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: 120 * time.Second}, urls: urls, seed: maphash.MakeSeed(), conns: conns}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// get sends one request and returns its status, body hash and size.
func (c *loadClient) get(ctx context.Context, text int32, buf []byte) (status int, hash uint64, n int64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[text], nil)
	if err != nil {
		return 0, 0, 0
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, 0
	}
	defer resp.Body.Close()
	var h maphash.Hash
	h.SetSeed(c.seed)
	n, err = io.CopyBuffer(&h, resp.Body, buf)
	if err != nil {
		return 0, 0, n
	}
	return resp.StatusCode, h.Sum64(), n
}

func (c *loadClient) hash(b []byte) uint64 { return maphash.Bytes(c.seed, b) }

// closedLoop sends requests over c.conns connections, each sending its
// next request when the previous one completes, taking texts in stream
// order from seq[first:]. It stops issuing at the end of the stream, at
// the deadline when dur > 0, or after max requests when max > 0,
// whichever comes first, and returns the records and the wall time.
func (c *loadClient) closedLoop(ctx context.Context, seq []int32, first int, dur time.Duration, max int) ([]record, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []record
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	var lastDone atomic.Int64
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			var local []record
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if first+i >= len(seq) || (max > 0 && i >= max) || (dur > 0 && time.Now().After(deadline)) {
					break
				}
				text := seq[first+i]
				t0 := time.Now()
				st, h, n := c.get(ctx, text, buf)
				end := time.Now()
				local = append(local, record{text: text, status: st, hash: h, bytes: n, latency: end.Sub(t0)})
				for {
					old := lastDone.Load()
					if end.UnixNano() <= old || lastDone.CompareAndSwap(old, end.UnixNano()) {
						break
					}
				}
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Duration(lastDone.Load() - start.UnixNano())
	return out, wall
}

// openLoop sends n requests, texts in stream order from seq[first:], on
// a seeded Poisson schedule at rate requests per second, regardless of
// how earlier requests fare. Each connection takes the next request in
// order and sends it when it falls due, or at once if it is already
// overdue because both connections were busy. Latency runs from the
// scheduled send to the last body byte, so a stall charges every
// request queued behind it; late records how far behind schedule each
// send actually went out.
func (c *loadClient) openLoop(ctx context.Context, seq []int32, first, n int, rate float64, seed int64) []record {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	out := make([]record, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sched := start.Add(due[i])
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				text := seq[first+i]
				sent := time.Now()
				st, h, b := c.get(ctx, text, buf)
				end := time.Now()
				out[i] = record{text: text, status: st, hash: h, bytes: b, latency: end.Sub(sched), late: sent.Sub(sched)}
			}
		}()
	}
	wg.Wait()
	return out
}
