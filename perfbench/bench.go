package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

const (
	tenantID = "bench"
	// bottomless is the tenant budget: large enough that no run is
	// refused, so a 429 is a failure.
	bottomless = 1e12
)

// bench is one run of one workload.
type bench struct {
	cfg   config
	w     *workload
	conns int
	rep   report

	data   *dataset
	gen    *reqGen
	ingest *ingestTrack

	nextBatch int

	srv     *serve.Server
	hs      *http.Server
	base    string
	hc      *http.Client
	dataDir string

	// gate tallies every operation sent to the kept server; truth holds
	// the exact table states the gate judges answers against.
	gate  gateStats
	truth *truths

	spans *spanLog // nil unless tracing
}

func newBench(cfg config) *bench {
	w := workloads[cfg.workload]
	conns := runtime.NumCPU()
	b := &bench{cfg: cfg, w: w, conns: conns}
	nBatches := int(w.ingestRate*cfg.seconds*1.5) + 64
	b.data = genData(w, cfg.seed, nBatches)
	b.gen = newReqGen(w, cfg.seed)
	b.ingest = &ingestTrack{acked: make([]bool, nBatches)}
	b.truth = newTruths(b)
	b.hc = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	if cfg.trace {
		b.spans = newSpanLog()
	}
	return b
}

// serverOptions is the configuration every server of the run gets.
func (b *bench) serverOptions(dataDir string) serve.Options {
	opts := serve.Options{Seed: b.cfg.seed, DataDir: dataDir}
	if b.w.durable {
		opts.SnapshotEvery = b.w.snapEvery
	}
	if b.cfg.trace {
		// Hold every release of the run in the flight recorder.
		opts.TraceRing = int(2*b.w.releaseRate*b.cfg.seconds) + b.w.warmCharged + 1024
	}
	return opts
}

// start opens a server and serves it on a loopback listener.
func (b *bench) start(opts serve.Options) (*serve.Server, *http.Server, string, error) {
	srv, err := serve.Open(opts)
	if err != nil {
		return nil, nil, "", fmt.Errorf("serve.Open: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	return srv, hs, "http://" + ln.Addr().String(), nil
}

// stop closes the listener and then the server.
func stop(srv *serve.Server, hs *http.Server) error {
	_ = hs.Close()
	return srv.Close()
}

func (b *bench) post(base, path string, body []byte, want int) error {
	resp, err := b.hc.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, msg)
	}
	return nil
}

func mustJSON(v any) []byte {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return out
}

// provision creates the release tenant (and the stream tenant, when it
// is another) with their "metrics" tables on base, loads the base rows
// and then the given ingest-stream bodies.
func (b *bench) provision(base string, stream [][]byte) error {
	tenants := []string{tenantID}
	if b.w.streamTenant != tenantID {
		tenants = append(tenants, b.w.streamTenant)
	}
	for _, id := range tenants {
		if err := b.post(base, "/v1/tenants", mustJSON(serve.CreateTenantRequest{ID: id, Epsilon: bottomless, Shards: b.w.shards}), http.StatusCreated); err != nil {
			return err
		}
		req := serve.CreateTableRequest{
			Name:       "metrics",
			Columns:    []serve.ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}, {Name: "grp", Kind: "string"}},
			UserColumn: "uid",
		}
		if err := b.post(base, "/v1/tenants/"+id+"/tables", mustJSON(req), http.StatusCreated); err != nil {
			return err
		}
	}
	for _, body := range b.data.baseBodies {
		if err := b.post(base, "/v1/tenants/"+tenantID+"/tables/metrics/rows", body, http.StatusOK); err != nil {
			return err
		}
	}
	for _, body := range stream {
		if err := b.post(base, "/v1/tenants/"+b.w.streamTenant+"/tables/metrics/rows", body, http.StatusOK); err != nil {
			return err
		}
	}
	return nil
}

// firstRelease sends one release and returns it once answered.
func (b *bench) firstRelease(base string) (*op, error) {
	o := &op{req: b.gen.build(kMean, releaseEps*(1-1e-6), 0, 0)}
	b.do(base, o)
	if !o.ok() {
		return o, fmt.Errorf("first release: HTTP %d: %v %s", o.status, o.err, o.resp)
	}
	return o, nil
}

// setup opens a fresh server, provisions it and waits for its first
// answered release. It returns the elapsed time.
func (b *bench) setup(i int) (time.Duration, error) {
	dataDir := ""
	if b.w.durable {
		dataDir = filepath.Join(b.cfg.workdir, fmt.Sprintf("data-%d", i))
		if err := os.RemoveAll(dataDir); err != nil {
			return 0, err
		}
		// Start every timed set-up with nothing left to write back, so
		// its fsyncs do not also flush what the previous one left.
		syscall.Sync()
	}
	runtime.GC()
	t0 := time.Now()
	srv, hs, base, err := b.start(b.serverOptions(dataDir))
	if err != nil {
		return 0, err
	}
	b.srv, b.hs, b.base, b.dataDir = srv, hs, base, dataDir
	if err := b.provision(base, nil); err != nil {
		return 0, err
	}
	o, err := b.firstRelease(base)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	b.gate = gateStats{}
	b.account([]*op{o})
	return d, nil
}

// closeKept stops the kept server and removes its data directory.
func (b *bench) closeKept() error {
	if b.srv == nil {
		return nil
	}
	err := stop(b.srv, b.hs)
	b.srv = nil
	if b.dataDir != "" {
		if rmErr := os.RemoveAll(b.dataDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// phase runs one open-loop phase against the kept server, recording
// its ops (and, when tracing, a span per op under a phase span).
func (b *bench) phase(name string, ops []*op, cutoff time.Duration) phaseStats {
	b.runOpen(name, ops, cutoff)
	st := summarize(ops)
	b.account(ops)
	return st
}

// warm sends warmCharged distinct releases closed-loop (every op due at
// once), so measurement starts in the server's steady state.
func (b *bench) warm() phaseStats {
	var ops []*op
	for charged := 0; charged < b.w.warmCharged; {
		r := b.gen.next()
		if !r.dashboard {
			charged++
		}
		ops = append(ops, &op{req: r})
	}
	return b.phase("warmup", ops, 0)
}

// burst measures the release capacity: releases sent closed loop through
// every connection for d (each connection sends its next release as soon
// as the last one is answered), and the rate at which they completed
// within d. Releases still unsent at d are dropped.
func (b *bench) burst(name string, d time.Duration) float64 {
	var ops []*op
	// More than the server can answer in d, even with every request a
	// cache hit.
	for i := 0; i < int(5000*d.Seconds())+b.conns; i++ {
		ops = append(ops, &op{req: b.gen.next()})
	}
	b.phase(name, ops, d)
	n := 0
	for _, o := range ops {
		if !o.skipped && o.ok() && o.done <= d {
			n++
		}
	}
	return float64(n) / d.Seconds()
}

// lagBound is the generator's own lateness (p99) past which a fixed-rate
// window is invalid. A slow spell of the machine delays the generator
// too; its lateness is charged to the latencies either way.
const lagBound = 50 * time.Millisecond

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapMB is the live heap after two forced GCs: objects a sync.Pool
// caches (encoding/json keeps the buffer of the last snapshot it encoded)
// survive one GC or not depending on when the last one ran, and are
// freed by the second.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// tenantStatus reads GET /v1/tenants/{t}.
func (b *bench) tenantStatus(base string) (serve.TenantStatus, error) {
	var st serve.TenantStatus
	resp, err := b.hc.Get(base + "/v1/tenants/" + tenantID)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("tenant status: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// ackedRows counts the rows the kept server acknowledged into a
// tenant's "metrics" table.
func (b *bench) ackedRows(tenant string) int {
	n := 0
	if tenant == tenantID {
		n = len(b.data.base)
	}
	if b.w.streamTenant == tenant {
		for i, ok := range b.ingest.acked {
			if ok {
				n += len(b.data.batches[i])
			}
		}
	}
	return n
}

// ackedStream returns every acknowledged ingest row, re-encoded in
// set-up sized batches, as a reload would send them.
func (b *bench) ackedStream() [][]byte {
	var rows []row
	for i, ok := range b.ingest.acked {
		if ok {
			rows = append(rows, b.data.batches[i]...)
		}
	}
	var out [][]byte
	for i := 0; i < len(rows); i += setupBatchRows {
		out = append(out, encodeRows(rows[i:min(i+setupBatchRows, len(rows))]))
	}
	return out
}

// tailPairs is how many ingest batches, and as many releases, make the
// WAL tail a recovery replays: together they stay below SnapshotEvery
// records, so no compaction starts before the server is abandoned.
const tailPairs = 40

// tail gives recovery the same work on every run: it compacts the
// release tenant, then sends a fixed tail of ingest batches and releases
// that the snapshot does not cover.
func (b *bench) tail() error {
	if err := b.srv.CompactTenant(tenantID); err != nil {
		return fmt.Errorf("compacting before the tail: %w", err)
	}
	var ops []*op
	for i := 0; i < tailPairs; i++ {
		ops = append(ops, &op{batch: b.nextBatch}, &op{req: b.gen.next()})
		b.nextBatch++
	}
	b.phase("tail", ops, 0)
	return nil
}

// quiesce waits until no compaction has finished for a while, so an
// abandoned durable server is idle when its directory is copied.
func (b *bench) quiesce() error {
	last := -1.0
	for stable := 0; stable < 5; {
		snap, err := scrape(b.hc, b.base)
		if err != nil {
			return err
		}
		n := snap[`updp_compaction_seconds_count`]
		if n == last {
			stable++
		} else {
			stable, last = 0, n
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil
}

// recover abandons the kept server (quiesced, when durable) and measures
// how long a new server takes to answer again from the acknowledged
// state: a durable server reopens a copy of the abandoned data directory
// (replay, no Flush ever ran); an in-memory server kept nothing, so it is
// provisioned again from the acknowledged rows. Each recovered server is
// checked against the acknowledged state.
func (b *bench) recover(reps repeats, ackedSpend float64) ([]float64, error) {
	var out []float64
	if b.w.durable {
		_ = b.hs.Close() // abandon: no Close, no Flush
	} else if err := b.closeKept(); err != nil {
		return nil, err
	}
	stream := b.ackedStream()
	for t0, i := time.Now(), 0; reps.more(i, t0); i++ {
		dir := ""
		if b.w.durable {
			dir = filepath.Join(b.cfg.workdir, fmt.Sprintf("recover-%d", i))
			if err := copyDir(b.dataDir, dir); err != nil {
				return nil, fmt.Errorf("copying data dir: %w", err)
			}
			// As after a crash, the directory is on disk before recovery
			// starts, so recovery's fsyncs do not flush the copy.
			syscall.Sync()
		}
		runtime.GC()
		start := time.Now()
		srv, hs, base, err := b.start(b.serverOptions(dir))
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		if !b.w.durable {
			if err := b.provision(base, stream); err != nil {
				return nil, err
			}
		}
		if b.cfg.hooks != nil && b.cfg.hooks.afterRecover != nil {
			b.cfg.hooks.afterRecover(srv)
		}
		checkErr := b.checkRecovered(srv, ackedSpend)
		if _, err := b.firstRelease(base); err != nil {
			return nil, fmt.Errorf("recovered server: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
		closeErr := stop(srv, hs)
		if checkErr != nil {
			return nil, checkErr
		}
		if closeErr != nil {
			return nil, closeErr
		}
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
