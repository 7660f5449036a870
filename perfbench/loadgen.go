package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// op is one scheduled operation of an open-loop phase: a release, or an
// ingest batch when req is nil. Times are offsets from the phase start.
type op struct {
	due   time.Duration
	req   *request
	batch int

	lag    time.Duration // how late the dispatcher handed the op to a connection
	sent   time.Duration // a connection picked it up
	done   time.Duration
	status int
	err    error
	id     string // X-Release-Id
	resp   []byte // dropped once the gate has judged it
	cached bool   // a budget-free cache replay
	// skipped ops were never sent: their burst had ended.
	skipped bool
	// ingest batches [0, lo) were acknowledged before this release was
	// sent; batches [hi, ...) had not been sent when it completed.
	lo, hi int
}

func (o *op) ok() bool {
	return o.err == nil && (o.status == http.StatusOK || o.status == http.StatusCreated)
}

// latency is a release's latency timed from its due time, so a stall
// also charges the requests that queued behind it. An ingest batch is
// timed from when a connection picked it up: the writer is a client of
// its own, and its wait for one of the analysts' connections would
// measure the release traffic, not the ingest path.
func (o *op) latency() time.Duration {
	if o.req == nil {
		return o.done - o.sent
	}
	return o.done - o.due
}

// schedule lays out a release stream and an ingest stream at fixed
// rates over d — evenly spaced arrivals, each stream starting half a gap
// in — and merges them in due order.
func (b *bench) schedule(releaseRate, ingestRate float64, d time.Duration) []*op {
	var ops []*op
	arrivals := func(rate float64, mk func(time.Duration) *op) {
		if rate <= 0 {
			return
		}
		gap := float64(time.Second) / rate
		for i := 0; ; i++ {
			t := time.Duration((float64(i) + 0.5) * gap)
			if t >= d {
				return
			}
			ops = append(ops, mk(t))
		}
	}
	arrivals(releaseRate, func(t time.Duration) *op { return &op{due: t, req: b.gen.next()} })
	arrivals(ingestRate, func(t time.Duration) *op { return &op{due: t, batch: -1} })
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	// Batch indices follow send order, so the ingest stream is a prefix.
	for _, o := range ops {
		if o.req == nil {
			o.batch = b.nextBatch
			b.nextBatch++
		}
	}
	return ops
}

// ingestTrack follows which ingest batches have been sent and
// acknowledged, so every release knows the range of table states its
// answer may have been computed on.
type ingestTrack struct {
	mu      sync.Mutex
	acked   []bool
	prefix  int // batches [0, prefix) all acknowledged
	started int // 1 + the highest batch index sent
}

func (t *ingestTrack) start(batch int) {
	t.mu.Lock()
	t.started = max(t.started, batch+1)
	t.mu.Unlock()
}

func (t *ingestTrack) ack(batch int) {
	t.mu.Lock()
	t.acked[batch] = true
	for t.prefix < len(t.acked) && t.acked[t.prefix] {
		t.prefix++
	}
	t.mu.Unlock()
}

func (t *ingestTrack) lower() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prefix
}

func (t *ingestTrack) upper() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.started
}

// runOpen sends ops on their schedule through at most b.conns
// connections. A single dispatcher releases each op at its due time;
// ops that fall due while every connection is busy wait in the
// generator, and that wait counts in their latency. Releases still
// unsent at cutoff (0 = none) are dropped and marked skipped. When
// tracing, each connection records its op's span as the op completes,
// under a span for the phase. It returns once every sent op has
// completed.
func (b *bench) runOpen(name string, ops []*op, cutoff time.Duration) {
	queue := make(chan *op, len(ops)) // sized to the number of sends
	start := time.Now()
	pid := 0
	if b.spans != nil {
		pid = b.spans.add(0, "phase."+name, start, start, "")
		defer func() { b.spans.end(pid, time.Now()) }()
	}
	var wg sync.WaitGroup
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				now := time.Since(start)
				// Only releases are dropped, so the ingest stream stays a
				// prefix.
				if cutoff > 0 && now > cutoff && o.req != nil {
					o.skipped = true
					continue
				}
				o.sent = now
				b.do(b.base, o)
				o.done = time.Since(start)
				if o.req == nil && o.ok() {
					b.ingest.ack(o.batch)
				}
				if o.req != nil {
					o.hi = b.ingest.upper()
				}
				if b.spans != nil {
					b.spans.op(pid, start, o)
				}
			}
		}()
	}
	for _, o := range ops {
		if wait := o.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		o.lag = max(0, time.Since(start)-o.due)
		queue <- o
	}
	close(queue)
	wg.Wait()
}

// do performs one HTTP operation against the server at base.
func (b *bench) do(base string, o *op) {
	var url string
	var body []byte
	if o.req != nil {
		url = base + "/v1/tenants/" + tenantID + "/" + o.req.path
		body = o.req.body
		o.lo = b.ingest.lower()
	} else {
		url = base + "/v1/tenants/" + b.w.streamTenant + "/tables/metrics/rows"
		body = b.data.batchBodies[o.batch]
		b.ingest.start(o.batch)
	}
	resp, err := b.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	o.id = resp.Header.Get("X-Release-Id")
	o.resp, o.err = io.ReadAll(resp.Body)
}

// phaseStats summarizes one phase's ops.
type phaseStats struct {
	releases, ingests []time.Duration // latencies of successful ops
	lags              []time.Duration
	attempted, failed int
	skipped           int
}

func summarize(ops []*op) phaseStats {
	var s phaseStats
	for _, o := range ops {
		if o.skipped {
			s.skipped++
			continue
		}
		s.attempted++
		s.lags = append(s.lags, o.lag)
		if !o.ok() {
			s.failed++
			continue
		}
		if o.req != nil {
			s.releases = append(s.releases, o.latency())
		} else {
			s.ingests = append(s.ingests, o.latency())
		}
	}
	return s
}

// quantile returns the q-quantile (nearest rank) of ds in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	ix := int(q*float64(len(s))+0.5) - 1
	ix = min(max(ix, 0), len(s)-1)
	return float64(s[ix]) / float64(time.Millisecond)
}

// beyond counts samples strictly above the q-quantile.
func beyond(ds []time.Duration, q float64) int {
	lim := quantile(ds, q)
	n := 0
	for _, d := range ds {
		if float64(d)/float64(time.Millisecond) > lim {
			n++
		}
	}
	return n
}
