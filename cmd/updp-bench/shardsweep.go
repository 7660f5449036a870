package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dpsql"
	"repro/internal/serve"
)

// runShardSweep is the shard-scaling benchmark: for each shard count in
// {1, 4, 16} it provisions a sharded tenant on an in-process server,
// hammers the table with concurrent ingesters (measuring storage-level
// rows/sec — the number the per-shard lock striping moves), then issues a
// fixed series of distinct releases over HTTP (measuring end-to-end
// release latency with the scan fanned across the worker pool). Shard
// count is a pure storage topology, so the answers and budget mechanics
// are identical across rows of the report — only the clock changes.
func runShardSweep(cfg loadgenConfig) error {
	if cfg.target != "self" {
		return fmt.Errorf("loadgen: -shards sweep needs -serve self (it measures in-process ingest)")
	}
	counts := []int{1, 4, 16}
	// At least 4 writers even on small machines: the sweep measures lock
	// striping, which needs concurrent offered load to measure at all.
	ingesters := runtime.GOMAXPROCS(0)
	if ingesters > 16 {
		ingesters = 16
	}
	if ingesters < 4 {
		ingesters = 4
	}
	rowsPerIngester := 2 * cfg.users / ingesters
	const releases = 48

	// Warm-up pass (discarded): page in the allocator and the HTTP stack
	// so the first measured row is not charged for process warm-up.
	if _, err := sweepOne(cfg, 1, ingesters, rowsPerIngester/10+1, 4); err != nil {
		return err
	}

	var rows []sweepResult
	for _, n := range counts {
		r, err := sweepOne(cfg, n, ingesters, rowsPerIngester, releases)
		if err != nil {
			return err
		}
		r.shards = n
		rows = append(rows, r)
	}

	fmt.Printf("=== shard sweep: %d ingesters x %d rows, %d releases, %d users, workers=GOMAXPROCS ===\n",
		ingesters, rowsPerIngester, releases, cfg.users)
	fmt.Printf("%-8s %14s %9s %12s %12s %12s %11s\n", "shards", "ingest rows/s", "speedup", "seq rows/s", "release p50", "release p95", "straggler")
	base := rows[0].rowsPerS
	for _, r := range rows {
		fmt.Printf("%-8d %14.0f %8.2fx %12.0f %12v %12v %10.2fx\n",
			r.shards, r.rowsPerS, r.rowsPerS/base, r.seqRowsPerS,
			r.p50.Round(time.Microsecond), r.p95.Round(time.Microsecond), r.straggler)
	}
	fmt.Println("ingest rows/s is the storage path (concurrent Insert striping across per-shard locks);")
	fmt.Println("seq rows/s is the same path driven by ONE writer (no lock contention — isolates per-shard")
	fmt.Println("overhead from cross-core contention); release latency is the HTTP estimate path with the")
	fmt.Println("scan fanned over the worker pool. straggler is the mean over releases of (slowest shard")
	fmt.Println("scan / mean shard scan) from the flight recorder's per-shard scan spans — 1.00x is a")
	fmt.Println("perfectly balanced fan-out; the excess is wall-clock spent waiting on the laggard shard.")
	fmt.Println("Per-stage release means from the server's /metrics:")
	for _, r := range rows {
		fmt.Printf("  shards=%-3d", r.shards)
		for _, d := range r.stages {
			fmt.Printf("  %s=%v", d.stage, d.mean().Round(time.Microsecond))
		}
		fmt.Println()
	}
	return nil
}

type sweepResult struct {
	shards      int
	rowsPerS    float64 // concurrent ingest throughput
	seqRowsPerS float64 // single-writer ingest throughput (contention-free)
	p50, p95    time.Duration
	stages      []stageDelta // per-stage release means from /metrics
	straggler   float64      // mean max/mean per-shard scan-span ratio
}

// sweepOne measures one shard count on a fresh in-process server.
func sweepOne(cfg loadgenConfig, shards, ingesters, rowsPerIngester, releases int) (sweepResult, error) {
	var res sweepResult
	srv, err := serve.Open(serve.Options{Seed: cfg.seed, QueueDepth: 4 * ingesters})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{Timeout: 30 * time.Second}

	tenant := fmt.Sprintf("sweep-%d", shards)
	if code, err := jsonPost(hc, base, "/v1/tenants", serve.CreateTenantRequest{
		ID: tenant, Epsilon: 1e9, Shards: shards,
	}, nil); err != nil || code != http.StatusCreated {
		return res, fmt.Errorf("loadgen: creating sweep tenant: code=%d err=%v", code, err)
	}
	if code, err := jsonPost(hc, base, "/v1/tenants/"+tenant+"/tables", serve.CreateTableRequest{
		Name: "metrics",
		Columns: []serve.ColumnSpec{
			{Name: "uid", Kind: "string"},
			{Name: "v", Kind: "float"},
		},
		UserColumn: "uid",
	}, nil); err != nil || code != http.StatusCreated {
		return res, fmt.Errorf("loadgen: creating sweep table: code=%d err=%v", code, err)
	}

	// Storage-level ingest: concurrent writers inserting distinct users
	// directly into the table. With one shard they serialize on a single
	// lock; with N they stripe.
	tn, ok := srv.Tenant(tenant)
	if !ok {
		return res, fmt.Errorf("loadgen: sweep tenant vanished")
	}
	tab, err := tn.DB().TableByName("metrics")
	if err != nil {
		return res, err
	}

	// Sequential baseline first: ONE writer, no lock contention possible.
	// If this column stays flat across shard counts while the concurrent
	// column degrades, the degradation is cross-core contention on shared
	// state in the insert path, not per-shard bookkeeping overhead.
	seqRows := rowsPerIngester
	tSeq := time.Now()
	for i := 0; i < seqRows; i++ {
		uid := fmt.Sprintf("s00-%06d", i/2)
		if err := tab.Insert(dpsql.Str(uid), dpsql.Float(float64(100+i%41))); err != nil {
			return res, fmt.Errorf("loadgen: sweep seq insert: %w", err)
		}
	}
	res.seqRowsPerS = float64(seqRows) / time.Since(tSeq).Seconds()

	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rowsPerIngester; i++ {
				uid := fmt.Sprintf("u%02d-%06d", g, i/2) // two rows per user
				if err := tab.Insert(dpsql.Str(uid), dpsql.Float(float64(100+i%41))); err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: sweep insert: %v\n", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	total := ingesters * rowsPerIngester
	res.rowsPerS = float64(total) / elapsed.Seconds()

	// Release latency over HTTP: distinct quantile ranks defeat the
	// replay cache, so every release runs a real fanned scan + mechanism.
	// Scraping /metrics around the loop breaks the latency into the
	// server's own stages (scan vs noise vs deduct vs queue wait).
	metBefore, _, err := scrapeMetrics(hc, base)
	if err != nil {
		return res, err
	}
	lats := make([]time.Duration, 0, releases)
	for i := 0; i < releases; i++ {
		p := 0.01 + 0.98*float64(i)/float64(releases)
		r0 := time.Now()
		code, err := jsonPost(hc, base, "/v1/tenants/"+tenant+"/estimate", serve.EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: cfg.eps,
		}, nil)
		if err != nil {
			return res, err
		}
		if code != http.StatusOK {
			return res, fmt.Errorf("loadgen: sweep release %d: HTTP %d", i, code)
		}
		lats = append(lats, time.Since(r0))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pick := func(p float64) time.Duration {
		ix := int(math.Ceil(p*float64(len(lats)))) - 1
		if ix < 0 {
			ix = 0
		}
		return lats[ix]
	}
	res.p50, res.p95 = pick(0.50), pick(0.95)
	metAfter, _, err := scrapeMetrics(hc, base)
	if err != nil {
		return res, err
	}
	res.stages = stageDeltas(metBefore, metAfter, "updp_release_stage_seconds")
	if res.straggler, err = stragglerRatio(hc, base, tenant); err != nil {
		return res, err
	}
	return res, nil
}

// stragglerRatio reads the flight recorder's retained traces for the
// sweep tenant and returns the mean over releases of the per-release
// straggler ratio: the slowest shard's scan span over the mean shard
// scan span. The ring (default 256) comfortably retains the sweep's
// releases; traces without per-shard spans (cache replays, aborted
// releases) are skipped rather than counted as balanced.
func stragglerRatio(hc *http.Client, base, tenant string) (float64, error) {
	var list serve.TraceListResponse
	if err := getJSON(hc, base+"/v1/traces?tenant="+tenant, &list); err != nil {
		return 0, err
	}
	var sum float64
	n := 0
	for _, s := range list.Traces {
		var det serve.TraceDetail
		if err := getJSON(hc, base+"/v1/traces/"+s.ID, &det); err != nil {
			return 0, err
		}
		var shardMs []float64
		var walk func([]*serve.TraceSpan)
		walk = func(spans []*serve.TraceSpan) {
			for _, sp := range spans {
				if sp.Stage == "scan_shard" {
					shardMs = append(shardMs, sp.DurationMs)
				}
				walk(sp.Children)
			}
		}
		walk(det.Spans)
		if len(shardMs) == 0 {
			continue
		}
		var slowest, total float64
		for _, d := range shardMs {
			total += d
			if d > slowest {
				slowest = d
			}
		}
		if mean := total / float64(len(shardMs)); mean > 0 {
			sum += slowest / mean
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("loadgen: flight recorder retained no scan_shard spans for %s", tenant)
	}
	return sum / float64(n), nil
}

// getJSON fetches url and decodes a 200 body into out.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
