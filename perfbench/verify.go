package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"sparqlog/internal/eval"
	"sparqlog/internal/exec"
	"sparqlog/internal/rdf"
	"sparqlog/internal/sparql"
)

// serverMaxRows is sparqld's default -max-rows; the reference
// evaluation uses the same row cap so overflow errors agree.
const serverMaxRows = 1_000_000

// digest is an answer in comparable form: ASK's boolean, or the
// projection plus a row count and a hash over the rows, whose cells are
// term texts ("" = unbound). The row hash is order-independent unless
// the query orders its rows.
type digest struct {
	isAsk   bool
	boolean bool
	vars    []string
	rows    int
	hash    uint64
}

func (a digest) equal(b digest) bool {
	return a.isAsk == b.isAsk && a.boolean == b.boolean && slices.Equal(a.vars, b.vars) && a.rows == b.rows && a.hash == b.hash
}

// rowHasher folds rows into a digest's hash: a sum of row hashes
// (order-independent) or a chain (ordered).
type rowHasher struct {
	seed    maphash.Seed
	ordered bool
	h       maphash.Hash
}

func (rh *rowHasher) add(sum uint64, cells []string) uint64 {
	rh.h.Reset()
	if rh.ordered {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], sum)
		rh.h.Write(b[:])
	}
	for _, c := range cells {
		rh.h.WriteString(c)
		rh.h.WriteByte(0x1f)
	}
	if rh.ordered {
		return rh.h.Sum64()
	}
	return sum + rh.h.Sum64()
}

func newRowHasher(seed maphash.Seed, ordered bool) *rowHasher {
	rh := &rowHasher{seed: seed, ordered: ordered}
	rh.h.SetSeed(seed)
	return rh
}

// reference is one distinct text's expected outcome: plain serial
// evaluation with no caches on the loaded data, and the body the
// server returned for it in the verification pass.
type reference struct {
	status int
	ans    digest
	cost   time.Duration // uncached serial evaluation time
	hash   uint64        // served body hash in the verification pass
	bytes  int64
	err    string // why the served answer disagrees, empty when it agrees
}

// evaluate computes a text's expected status and answer in process.
func evaluate(ctx context.Context, sn *rdf.Snapshot, text string, seed maphash.Seed) reference {
	q, err := sparql.Parse(text)
	if err != nil {
		return reference{status: http.StatusBadRequest}
	}
	start := time.Now()
	res, err := eval.QueryContext(ctx, sn, q, eval.Limits{MaxRows: serverMaxRows, Parallel: 1})
	cost := time.Since(start)
	if err != nil {
		if errors.Is(err, exec.ErrTimeout) {
			return reference{status: http.StatusServiceUnavailable, cost: cost}
		}
		return reference{status: http.StatusInternalServerError, cost: cost}
	}
	a := digest{isAsk: q.Type == sparql.AskQuery, boolean: res.Bool}
	if !a.isAsk {
		a.vars, a.rows = res.Vars, len(res.Rows)
		rh := newRowHasher(seed, len(q.Mods.OrderBy) > 0)
		for _, r := range res.Rows {
			a.hash = rh.add(a.hash, r)
		}
	}
	return reference{status: http.StatusOK, ans: a, cost: cost}
}

// verify fetches each listed distinct text from the server once and
// compares status and answer with the in-process reference, on two
// workers. The served body's hash becomes the reference every timed
// response of that text is checked against.
func verify(ctx context.Context, c *loadClient, sn *rdf.Snapshot, texts []string, which []int32) map[int32]*reference {
	out := make(map[int32]*reference, len(which))
	var mu sync.Mutex
	jobs := make(chan int32)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range jobs {
				ref := evaluate(ctx, sn, texts[id], c.seed)
				ref.check(ctx, c, id, texts[id])
				mu.Lock()
				out[id] = &ref
				mu.Unlock()
			}
		}()
	}
	for _, id := range which {
		if ctx.Err() != nil {
			break
		}
		jobs <- id
	}
	close(jobs)
	wg.Wait()
	return out
}

// check fetches the text from the server and records whether the
// served status and answer agree with the reference, and the body's
// hash and size.
func (ref *reference) check(ctx context.Context, c *loadClient, id int32, text string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.urls[id], nil)
	if err != nil {
		ref.err = err.Error()
		return
	}
	resp, err := c.http.Do(req)
	if err != nil {
		ref.err = "transport: " + err.Error()
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		ref.err = "transport: " + err.Error()
		return
	}
	ref.hash, ref.bytes = c.hash(body), int64(len(body))
	if resp.StatusCode != ref.status {
		ref.err = fmt.Sprintf("status %d, reference %d", resp.StatusCode, ref.status)
		return
	}
	if ref.status != http.StatusOK {
		return
	}
	q, _ := sparql.Parse(text)
	got, err := digestServed(body, c.seed, len(q.Mods.OrderBy) > 0)
	switch {
	case err != nil:
		ref.err = "unreadable body: " + err.Error()
	case !slices.Equal(got.vars, ref.ans.vars):
		ref.err = fmt.Sprintf("variables %q served, %q expected", got.vars, ref.ans.vars)
	case !got.equal(ref.ans):
		ref.err = fmt.Sprintf("answer differs: %d rows served, %d expected", got.rows, ref.ans.rows)
	}
}

// checkRecords counts timed requests that fail: a transport error, a
// 503, a status other than the reference's, or a body whose hash
// differs from the verified one. It returns the failure count and up
// to a few descriptions.
func checkRecords(recs []record, refs map[int32]*reference, texts []string) (int, []string) {
	failed := 0
	var why []string
	note := func(s string) {
		failed++
		if len(why) < 5 {
			why = append(why, s)
		}
	}
	for _, r := range recs {
		ref := refs[r.text]
		switch {
		case ref == nil:
			note(fmt.Sprintf("text %d was never verified", r.text))
		case ref.err != "":
			note(fmt.Sprintf("text %d: %s: %.120s", r.text, ref.err, texts[r.text]))
		case r.status == 0:
			note(fmt.Sprintf("text %d: transport error", r.text))
		case r.status == http.StatusServiceUnavailable:
			note(fmt.Sprintf("text %d: 503", r.text))
		case r.status != ref.status:
			note(fmt.Sprintf("text %d: status %d, reference %d", r.text, r.status, ref.status))
		case r.hash != ref.hash:
			note(fmt.Sprintf("text %d: body differs from the verified one (%d vs %d bytes)", r.text, r.bytes, ref.bytes))
		}
	}
	return failed, why
}
