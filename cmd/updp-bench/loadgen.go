package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/dp"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// loadgenConfig parameterizes the service-level benchmark.
type loadgenConfig struct {
	target     string // "self" or a base URL like http://host:8500
	clients    int
	duration   time.Duration
	users      int
	eps        float64 // per-release budget
	seed       uint64
	accounting string  // bench tenant backend: "pure" or "zcdp"
	delta      float64 // zcdp delta (0 = server default)
	window     float64 // refill window seconds (0 = lifetime budget)
	budget     float64 // compare mode: nominal total eps per twin
	grouped    bool    // loadgen: GROUP BY workload (histogram + grouped query/estimate)
	shards     int     // bench tenant table shard count (0 = server default)
	metricsOut string  // save the final /metrics scrape here ("" = skip)
	tracesOut  string  // save the post-run GET /v1/traces dump here ("" = skip)
}

// selfServe starts an in-process server on a loopback port when target is
// "self", returning the base URL and a shutdown func.
func selfServe(cfg loadgenConfig) (string, func(), error) {
	if cfg.target != "self" {
		return cfg.target, func() {}, nil
	}
	// Queue sized to the offered concurrency so the benchmark measures
	// service throughput, not the load-shedder (which has its own test).
	srv, err := serve.Open(serve.Options{Seed: cfg.seed, QueueDepth: 4 * cfg.clients})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "loadgen: in-process server at %s (workers=%d)\n", base, srv.Workers())
	return base, func() { hs.Close(); srv.Close() }, nil
}

// jsonPost marshals body, posts it, and decodes a <300 reply into out.
func jsonPost(hc *http.Client, base, path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Post(base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// provisionBench creates a tenant and fills its metrics table with
// cfg.users synthetic users (two rows each). The tenant inherits
// cfg.shards unless the request names its own topology.
func provisionBench(cfg loadgenConfig, hc *http.Client, base string, req serve.CreateTenantRequest) error {
	if req.Shards == 0 {
		req.Shards = cfg.shards
	}
	if code, err := jsonPost(hc, base, "/v1/tenants", req, nil); err != nil || code != http.StatusCreated {
		return fmt.Errorf("loadgen: creating tenant %s: code=%d err=%v", req.ID, code, err)
	}
	if code, err := jsonPost(hc, base, "/v1/tenants/"+req.ID+"/tables", serve.CreateTableRequest{
		Name: "metrics",
		Columns: []serve.ColumnSpec{
			{Name: "uid", Kind: "string"},
			{Name: "v", Kind: "float"},
			{Name: "grp", Kind: "string"},
		},
		UserColumn: "uid",
	}, nil); err != nil || code != http.StatusCreated {
		return fmt.Errorf("loadgen: creating table for %s: code=%d err=%v", req.ID, code, err)
	}
	rng := xrand.New(cfg.seed)
	groups := []string{"a", "b", "c"}
	const batch = 2000
	rows := make([][]any, 0, batch)
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		code, err := jsonPost(hc, base, "/v1/tenants/"+req.ID+"/tables/metrics/rows", serve.InsertRowsRequest{Rows: rows}, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("loadgen: inserting rows: code=%d err=%v", code, err)
		}
		rows = rows[:0]
		return nil
	}
	for u := 0; u < cfg.users; u++ {
		uid := fmt.Sprintf("u%06d", u)
		g := groups[u%len(groups)]
		for r := 0; r < 2; r++ {
			rows = append(rows, []any{uid, 250 + 30*rng.Gaussian(), g})
			if len(rows) == batch {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}

// runLoadgen hammers an updp-serve instance with a mixed estimator/SQL
// workload and reports throughput and latency — the repository's
// service-level benchmark. With target "self" an in-process server is
// started on a loopback port so the benchmark is self-contained.
func runLoadgen(cfg loadgenConfig) error {
	base, shutdown, err := selfServe(cfg)
	if err != nil {
		return err
	}
	defer shutdown()

	// Provision: tenant with an effectively bottomless budget (the
	// benchmark measures throughput, not refusals — those get their own
	// counter), one table, cfg.users users with two rows each. The
	// -accounting/-delta/-window flags pick the composition backend so
	// both ledgers see real service traffic.
	tenant := fmt.Sprintf("bench-%d", time.Now().UnixNano())
	hc := &http.Client{Timeout: 30 * time.Second}
	if err := provisionBench(cfg, hc, base, serve.CreateTenantRequest{
		ID:            tenant,
		Epsilon:       1e9,
		Accounting:    cfg.accounting,
		Delta:         cfg.delta,
		WindowSeconds: cfg.window,
	}); err != nil {
		return err
	}

	// Scrape /metrics after provisioning, before the workload: the deltas
	// against the post-run scrape attribute the run itself, not the setup
	// ingest, to stages.
	metBefore, _, err := scrapeMetrics(hc, base)
	if err != nil {
		return err
	}

	// Mixed workload: half SQL, half direct estimator releases. Half of
	// each client's requests are distinct (per-iteration WHERE bound /
	// quantile rank) so they exercise the mechanisms; the other half
	// repeat a small fixed set, exercising the response cache the way
	// dashboard-style traffic does. With -grouped the whole stream is
	// GROUP BY traffic instead — histograms, grouped queries, grouped
	// estimates — so every release runs the bounded-contribution grouped
	// scan and is priced by parallel composition; distinctness comes from
	// a relative 1e-12 budget jitter rather than a WHERE bound (grouped
	// releases have no free per-iteration predicate).
	sqls := []string{
		"SELECT AVG(v) FROM metrics",
		"SELECT COUNT(*) FROM metrics",
		"SELECT MEDIAN(v) FROM metrics",
		"SELECT AVG(v) FROM metrics GROUP BY grp",
	}
	stats := []string{"mean", "median", "iqr", "variance"}

	type tally struct {
		ok, refused, shed, errs int
		lat                     []time.Duration
	}
	tallies := make([]tally, cfg.clients)
	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &http.Client{Timeout: 30 * time.Second}
			ta := &tallies[c]
			for i := 0; time.Now().Before(deadline); i++ {
				var (
					path string
					body any
				)
				distinct := i%4 >= 2
				if cfg.grouped {
					eps := cfg.eps
					if distinct {
						eps = cfg.eps * (1 + float64(c*100003+i)*1e-12)
					}
					switch i % 3 {
					case 0:
						path = "/v1/tenants/" + tenant + "/histogram"
						body = serve.HistogramRequest{Table: "metrics", GroupBy: "grp", Epsilon: eps}
					case 1:
						path = "/v1/tenants/" + tenant + "/query"
						body = serve.QueryRequest{SQL: "SELECT AVG(v) FROM metrics", GroupBy: "grp", Epsilon: eps}
					default:
						body = serve.EstimateRequest{
							Table: "metrics", Column: "v", Stat: "median",
							GroupBy: "grp", Epsilon: eps,
						}
						path = "/v1/tenants/" + tenant + "/estimate"
					}
				} else if (c+i)%2 == 0 {
					path = "/v1/tenants/" + tenant + "/query"
					sql := sqls[i%len(sqls)]
					if distinct {
						sql = fmt.Sprintf("SELECT AVG(v) FROM metrics WHERE v < %d", 100000+c*1000003+i)
					}
					body = serve.QueryRequest{SQL: sql, Epsilon: cfg.eps}
				} else {
					path = "/v1/tenants/" + tenant + "/estimate"
					req := serve.EstimateRequest{
						Table: "metrics", Column: "v",
						Stat: stats[i%len(stats)], Epsilon: cfg.eps,
					}
					if distinct {
						req.Stat = "quantile"
						req.P = 0.001 + 0.998*float64((c*7919+i)%9973)/9973
					}
					body = req
				}
				b, _ := json.Marshal(body)
				t0 := time.Now()
				resp, err := cl.Post(base+path, "application/json", bytes.NewReader(b))
				if err != nil {
					ta.errs++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ta.lat = append(ta.lat, time.Since(t0))
				switch resp.StatusCode {
				case http.StatusOK:
					ta.ok++
				case http.StatusTooManyRequests:
					ta.refused++
				case http.StatusServiceUnavailable:
					ta.shed++
				default:
					ta.errs++
				}
			}
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < cfg.duration {
		elapsed = cfg.duration
	}

	var total tally
	for _, ta := range tallies {
		total.ok += ta.ok
		total.refused += ta.refused
		total.shed += ta.shed
		total.errs += ta.errs
		total.lat = append(total.lat, ta.lat...)
	}
	sort.Slice(total.lat, func(i, j int) bool { return total.lat[i] < total.lat[j] })
	pct := func(p float64) time.Duration {
		if len(total.lat) == 0 {
			return 0
		}
		ix := int(math.Ceil(p*float64(len(total.lat)))) - 1
		if ix < 0 {
			ix = 0
		}
		return total.lat[ix]
	}
	n := total.ok + total.refused + total.shed + total.errs
	workload := "mixed"
	if cfg.grouped {
		workload = "grouped"
	}
	fmt.Printf("=== serve loadgen: %d clients, %v, %d users, eps/release=%g, accounting=%s, workload=%s ===\n",
		cfg.clients, cfg.duration, cfg.users, cfg.eps, cfg.accounting, workload)
	fmt.Printf("requests     %d (ok %d, budget-refused %d, shed %d, errors %d)\n",
		n, total.ok, total.refused, total.shed, total.errs)
	fmt.Printf("throughput   %.1f req/s\n", float64(n)/elapsed.Seconds())
	fmt.Printf("latency      p50 %v  p95 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	if st, err := fetchStats(hc, base); err == nil {
		fmt.Printf("cache        %d hits, %d misses (hits are budget-free replays)\n",
			st.CacheHits, st.CacheMisses)
		if cfg.grouped {
			fmt.Printf("releases     %d histograms, %d queries, %d estimates (each grouped release = ONE parallel-composed deduction)\n",
				st.Histograms, st.Queries, st.Estimates)
		}
	}
	// The server's own per-stage histograms say where the latency went —
	// queue wait vs scan vs noise vs deduct — no client-side guessing.
	metAfter, raw, err := scrapeMetrics(hc, base)
	if err != nil {
		return err
	}
	printStageBreakdown(metBefore, metAfter)
	if err := writeMetricsOut(cfg.metricsOut, raw); err != nil {
		return err
	}
	if err := writeTracesOut(hc, base, cfg.tracesOut); err != nil {
		return err
	}
	if total.errs > 0 {
		return fmt.Errorf("loadgen: %d requests errored", total.errs)
	}
	return nil
}

// runRestart is the durability recovery scenario: a durable server is
// provisioned and spent against over HTTP, compacted once mid-stream (so
// recovery exercises snapshot + WAL tail, not just one of them), then
// abandoned WITHOUT a flush — simulating a crash. A second server opened
// on the same data dir must answer queries from the recovered data and
// report spend at least the pre-crash spend (never refilled); the report
// includes the recovery wall-time.
func runRestart(cfg loadgenConfig) error {
	if cfg.target != "self" {
		return fmt.Errorf("loadgen: -restart needs -serve self (it owns the data dir and the crash)")
	}
	if cfg.window > 0 {
		// A windowed ledger's Spent legitimately drops to zero when a
		// refill boundary passes during the drill, so "recovered spend >=
		// pre-crash spend" is not the invariant to assert for it.
		return fmt.Errorf("loadgen: -restart asserts lifetime-spend carry-over; drop -window")
	}
	dir, err := os.MkdirTemp("", "updp-restart-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	openOn := func(seed uint64) (*serve.Server, string, func(), error) {
		srv, err := serve.Open(serve.Options{Seed: seed, DataDir: dir})
		if err != nil {
			return nil, "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, "", nil, err
		}
		hs := &http.Server{Handler: srv}
		go func() { _ = hs.Serve(ln) }()
		return srv, "http://" + ln.Addr().String(), func() { hs.Close() }, nil
	}

	// Phase 1: provision, spend, compact once, spend more, crash.
	srvA, base, stopA, err := openOn(cfg.seed)
	if err != nil {
		return err
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	const tenant = "restart"
	if err := provisionBench(cfg, hc, base, serve.CreateTenantRequest{
		ID:            tenant,
		Epsilon:       1e6,
		Accounting:    cfg.accounting,
		Delta:         cfg.delta,
		WindowSeconds: cfg.window,
	}); err != nil {
		stopA()
		return err
	}
	const releases = 120
	release := func(i int) error {
		p := 0.001 + 0.998*float64(i%9973)/9973
		code, err := jsonPost(hc, base, "/v1/tenants/"+tenant+"/estimate", serve.EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: cfg.eps,
		}, nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("loadgen: release %d: HTTP %d", i, code)
		}
		return nil
	}
	for i := 0; i < releases/2; i++ {
		if err := release(i); err != nil {
			stopA()
			return err
		}
	}
	if err := srvA.Flush(); err != nil { // compacted snapshot mid-stream
		stopA()
		return err
	}
	for i := releases / 2; i < releases; i++ {
		if err := release(i); err != nil {
			stopA()
			return err
		}
	}
	before, err := fetchTenantStatus(hc, base, tenant)
	if err != nil {
		stopA()
		return err
	}
	if before.Spent <= 0 {
		stopA()
		return fmt.Errorf("loadgen: pre-crash spend is %v — the drill did not actually spend", before.Spent)
	}
	// Crash: stop the listener, never call srv.Close() — no final flush,
	// the WAL tail past the snapshot is all the second boot gets.
	stopA()

	// Phase 2: recover and verify.
	t0 := time.Now()
	srvB, base2, stopB, err := openOn(cfg.seed + 1)
	if err != nil {
		return fmt.Errorf("loadgen: recovery failed: %w", err)
	}
	recovery := time.Since(t0)
	defer stopB()
	defer srvB.Close()
	after, err := fetchTenantStatus(hc, base2, tenant)
	if err != nil {
		return err
	}
	if after.Spent < before.Spent {
		return fmt.Errorf("loadgen: RECOVERY BUG: spend regressed %v -> %v (%s) — budget partially refilled",
			before.Spent, after.Spent, after.Unit)
	}
	// ε=2 keeps the COUNT's noise at scale 1/2 so the report visibly shows
	// the recovered rows (the throughput releases use cfg.eps).
	var q serve.QueryResponse
	code, err := jsonPost(hc, base2, "/v1/tenants/"+tenant+"/query", serve.QueryRequest{
		SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 2,
	}, &q)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("loadgen: post-recovery query: code=%d err=%v", code, err)
	}

	fmt.Printf("=== restart recovery: %d users, %d releases (snapshot after %d), accounting=%s ===\n",
		cfg.users, releases, releases/2, cfg.accounting)
	fmt.Printf("spend        pre-crash %.6g %s -> recovered %.6g %s (eps view %.4g -> %.4g)\n",
		before.Spent, before.Unit, after.Spent, after.Unit, before.SpentEpsilon, after.SpentEpsilon)
	fmt.Printf("data         post-recovery COUNT(*) ~ %.0f (true %d users, %d rows)\n",
		q.Rows[0].Values[0], cfg.users, 2*cfg.users)
	fmt.Printf("recovery     %v wall-time (snapshot + WAL tail replay)\n", recovery.Round(time.Microsecond))
	fmt.Printf("invariant    recovered spend >= pre-crash spend: OK (never refilled)\n")
	return nil
}

// fetchTenantStatus pulls one tenant's status, refusing a non-200 so an
// error body can never decode into a zero status and vacuously satisfy
// the drill's spend assertions.
func fetchTenantStatus(hc *http.Client, base, tenant string) (serve.TenantStatus, error) {
	var st serve.TenantStatus
	resp, err := hc.Get(base + "/v1/tenants/" + tenant)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("loadgen: tenant status for %s: HTTP %d", tenant, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// fetchStats pulls /v1/stats.
func fetchStats(hc *http.Client, base string) (serve.ServerStats, error) {
	var st serve.ServerStats
	resp, err := hc.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// duelTwin is one contestant in the exhaustion duel: a tenant
// configuration plus how its backend takes the workload's Gaussian
// count releases (natively in ρ, or through Laplace in ε when the
// backend cannot represent the Gaussian at all). New backends join the
// duel by appending a row — the table printer and the loop are N-ary.
type duelTwin struct {
	label     string
	req       serve.CreateTenantRequest
	rhoNative bool
	note      string
}

// duelStream sends the shared mixed Laplace+Gaussian stream to one twin
// until it hits 429, returning how many releases it sustained: the
// stream alternates distinct quantile releases (Laplace at ε₀, first)
// with Gaussian counts at the matched zCDP price ρ₀ = ε₀²/2 (Laplace at
// ε₀ for twins whose backend cannot price a Gaussian). Every request is
// byte-distinct — varying quantile ranks, a relative 1e-9 jitter on the
// count budgets — so no release is a free cache replay.
func duelStream(hc *http.Client, base, tenant string, eps float64, rhoNative bool) (int, error) {
	const maxTries = 100000
	rho0 := eps * eps / 2
	for i := 0; i < maxTries; i++ {
		var req serve.EstimateRequest
		if i%2 == 1 {
			jitter := 1 + float64(i)*1e-9
			if rhoNative {
				req = serve.EstimateRequest{Table: "metrics", Stat: "count", Rho: rho0 * jitter}
			} else {
				req = serve.EstimateRequest{Table: "metrics", Stat: "count", Epsilon: eps * jitter}
			}
		} else {
			p := 0.001 + 0.998*float64(i%99991)/99991
			req = serve.EstimateRequest{Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: eps}
		}
		code, err := jsonPost(hc, base, "/v1/tenants/"+tenant+"/estimate", req, nil)
		if err != nil {
			return i, err
		}
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			return i, nil
		default:
			return i, fmt.Errorf("loadgen: %s release %d: HTTP %d", tenant, i, code)
		}
	}
	return maxTries, nil
}

// runCompare is the backend exhaustion duel: twin tenants with the same
// nominal (ε, δ) budget — basic composition, zCDP, and Rényi (RDP) —
// receive the same mixed stream of distinct small releases until each
// hits 429. Basic composition affords budget/ε₀ releases; zCDP affords
// rho(budget, δ)/(ε₀²/2), quadratically more; RDP prices the Laplace
// half of the stream below zCDP's ε²/2 line (and the Gaussian half
// identically), so it sustains the most. The rdp twin's order grid is
// picked with dp.RDPOrdersFor so it brackets the optimal conversion
// order for the nominal budget — the default grid tops out at α=64,
// which is too low for small ε at small δ (see docs/ACCOUNTING.md). A
// final, windowed twin shows the renewable budget recovering from 429
// after one window tick.
func runCompare(cfg loadgenConfig) error {
	base, shutdown, err := selfServe(cfg)
	if err != nil {
		return err
	}
	defer shutdown()
	hc := &http.Client{Timeout: 30 * time.Second}

	delta := cfg.delta
	if delta == 0 {
		delta = 1e-6
	}
	ts := time.Now().UnixNano()
	twins := []duelTwin{
		{
			label: "pure-eps",
			req:   serve.CreateTenantRequest{Epsilon: cfg.budget},
			note:  "basic composition: eps/release adds up (counts via Laplace)",
		},
		{
			label:     "zcdp",
			req:       serve.CreateTenantRequest{Epsilon: cfg.budget, Accounting: "zcdp", Delta: cfg.delta},
			rhoNative: true,
			note:      "each Laplace release costs eps^2/2 in rho, counts rho directly",
		},
		{
			label:     "rdp",
			req:       serve.CreateTenantRequest{Epsilon: cfg.budget, Accounting: "rdp", Delta: cfg.delta, Orders: dp.RDPOrdersFor(cfg.budget, delta)},
			rhoNative: true,
			note:      "full Renyi curves per release, optimal (eps, delta) conversion",
		},
	}
	for i := range twins {
		twins[i].req.ID = fmt.Sprintf("cmp-%s-%d", twins[i].label, ts)
		if err := provisionBench(cfg, hc, base, twins[i].req); err != nil {
			return err
		}
	}

	t0 := time.Now()
	counts := make([]int, len(twins))
	for i, tw := range twins {
		if counts[i], err = duelStream(hc, base, tw.req.ID, cfg.eps, tw.rhoNative); err != nil {
			return err
		}
	}

	fmt.Printf("=== accounting duel: nominal eps=%g (delta=%g), per-release eps=%g, mixed Laplace+Gaussian, %d users ===\n",
		cfg.budget, delta, cfg.eps, cfg.users)
	for i, tw := range twins {
		adv := ""
		if i > 0 && counts[0] > 0 {
			adv = fmt.Sprintf("  %.1fx vs %s", float64(counts[i])/float64(counts[0]), twins[0].label)
		}
		fmt.Printf("%-9s %6d releases before 429%s\n           (%s)\n", tw.label, counts[i], adv, tw.note)
	}
	fmt.Printf("elapsed      %v\n", time.Since(t0).Round(time.Millisecond))

	// Renewable budgets: a windowed twin comes back after one tick.
	windowed := fmt.Sprintf("cmp-win-%d", ts)
	const winSecs = 1.0
	if err := provisionBench(cfg, hc, base, serve.CreateTenantRequest{
		ID: windowed, Epsilon: cfg.budget, WindowSeconds: winSecs,
	}); err != nil {
		return err
	}
	if n, err := duelStream(hc, base, windowed, cfg.eps, false); err != nil {
		return err
	} else {
		fmt.Printf("windowed     %6d releases, then 429\n", n)
	}
	time.Sleep(time.Duration(winSecs*float64(time.Second)) + 200*time.Millisecond)
	code, err := jsonPost(hc, base, "/v1/tenants/"+windowed+"/estimate", serve.EstimateRequest{
		Table: "metrics", Column: "v", Stat: "median", Epsilon: cfg.eps,
	}, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("loadgen: windowed tenant did not recover after its window (HTTP %d)", code)
	}
	fmt.Printf("windowed     recovered after one %gs window tick (budget refilled)\n", winSecs)

	// Grouped duel: parallel composition vs legacy even-split pricing at
	// EQUAL per-group accuracy. The bench table has k=3 groups. The
	// parallel twin releases histograms at the default contribution bound
	// (1): groups partition users, each bucket gets the full ε₀ of noise
	// protection, and the whole histogram costs ε₀. The even-split twin
	// asks for the same per-bucket accuracy through the unbounded legacy
	// mode (contribution_bound -1, budget split ε/k per group), so it must
	// request — and is charged — k·ε₀ per histogram. Same accuracy, k×
	// the price: the parallel twin sustains ~k× the releases before 429.
	const kGroups = 3
	gTwins := []struct {
		label string
		eps   float64
		bound int
	}{
		{"grp-par", cfg.eps, 0},
		{"grp-even", kGroups * cfg.eps, -1},
	}
	gCounts := make([]int, len(gTwins))
	for i, tw := range gTwins {
		id := fmt.Sprintf("cmp-%s-%d", tw.label, ts)
		if err := provisionBench(cfg, hc, base, serve.CreateTenantRequest{ID: id, Epsilon: cfg.budget}); err != nil {
			return err
		}
		if gCounts[i], err = groupedStream(hc, base, id, tw.eps, tw.bound); err != nil {
			return err
		}
	}
	fmt.Printf("=== grouped duel: %d-bucket histograms at equal per-bucket accuracy (eps_g=%g), nominal eps=%g ===\n",
		kGroups, cfg.eps, cfg.budget)
	fmt.Printf("%-9s %6d releases before 429\n           (parallel composition: whole histogram priced as one release)\n",
		gTwins[0].label, gCounts[0])
	adv := ""
	if gCounts[1] > 0 {
		adv = fmt.Sprintf("  parallel sustains %.1fx", float64(gCounts[0])/float64(gCounts[1]))
	}
	fmt.Printf("%-9s %6d releases before 429%s\n           (legacy even-split: eps/k per bucket, so equal accuracy costs k*eps)\n",
		gTwins[1].label, gCounts[1], adv)
	return nil
}

// groupedStream sends byte-distinct histogram releases (a relative 1e-9
// budget jitter) to one tenant until it hits 429, returning how many it
// sustained. bound is the contribution bound to request: 0 for the
// default (clamped, parallel-composed), -1 for the legacy even-split.
func groupedStream(hc *http.Client, base, tenant string, eps float64, bound int) (int, error) {
	const maxTries = 100000
	for i := 0; i < maxTries; i++ {
		jitter := 1 + float64(i)*1e-9
		code, err := jsonPost(hc, base, "/v1/tenants/"+tenant+"/histogram", serve.HistogramRequest{
			Table: "metrics", GroupBy: "grp", Epsilon: eps * jitter, ContributionBound: bound,
		}, nil)
		if err != nil {
			return i, err
		}
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			return i, nil
		default:
			return i, fmt.Errorf("loadgen: %s histogram %d: HTTP %d", tenant, i, code)
		}
	}
	return maxTries, nil
}
