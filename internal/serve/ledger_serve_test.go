package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dp"
)

// ---------- accounting backends over the wire ----------

func TestCreateTenantAccountingConfig(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 11})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)

	var st TenantStatus
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "z", Epsilon: 1, Accounting: "zcdp",
	}, &st); code != http.StatusCreated {
		t.Fatalf("create zcdp tenant: status %d", code)
	}
	if st.Accounting != "zcdp" || st.Unit != "rho" {
		t.Errorf("status accounting/unit = %q/%q, want zcdp/rho", st.Accounting, st.Unit)
	}
	if st.Delta != 1e-6 {
		t.Errorf("default delta = %v, want 1e-6", st.Delta)
	}
	if want := dp.ZCDPRho(1, 1e-6); math.Abs(st.Total-want) > 1e-12 {
		t.Errorf("total rho = %v, want %v", st.Total, want)
	}
	if st.TotalEpsilon != 1 {
		t.Errorf("total_epsilon = %v, want nominal 1", st.TotalEpsilon)
	}

	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "p", Epsilon: 1, Accounting: "pure",
	}, &st); code != http.StatusCreated {
		t.Fatalf("create pure tenant: status %d", code)
	}
	if st.Accounting != "pure" || st.Unit != "eps" || st.Total != 1 || st.TotalEpsilon != 1 {
		t.Errorf("pure status = %+v", st)
	}

	// Config mistakes are refused.
	for i, bad := range []CreateTenantRequest{
		{ID: "x1", Epsilon: 1, Accounting: "renyi"},
		{ID: "x2", Epsilon: 1, Accounting: "zcdp", Delta: 2},
		{ID: "x3", Epsilon: 1, Delta: 1e-6}, // delta on a pure tenant
		{ID: "x4", Epsilon: 1, WindowSeconds: -5},
		{ID: "x5", Epsilon: -1, Accounting: "zcdp"},
	} {
		if code := c.do("POST", "/v1/tenants", bad, nil); code != http.StatusBadRequest {
			t.Errorf("bad config %d: status %d, want 400", i, code)
		}
	}
}

// The headline property: with the same nominal (ε, δ) budget, a zCDP
// tenant sustains at least 2x the successful small releases of a pure-ε
// twin before hitting 429 (quadratic vs linear composition).
func TestZCDPTenantSustainsTwiceThePureReleases(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 12, Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)

	const (
		nominalEps = 0.5
		releaseEps = 0.005
		maxTries   = 1000
	)
	seedTenant(t, c, "pure-twin", nominalEps, 120)
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "zcdp-twin", Epsilon: nominalEps, Accounting: "zcdp", Delta: 1e-6,
	}, nil); code != http.StatusCreated {
		t.Fatalf("create zcdp twin: status %d", code)
	}
	// Same table, same data as the pure twin.
	seedTables(t, c, "zcdp-twin", 120)

	sustained := func(tenant string) int {
		for i := 0; i < maxTries; i++ {
			// Distinct quantile ranks so no release is a free cache replay.
			p := 0.01 + 0.98*float64(i)/maxTries
			code := c.do("POST", "/v1/tenants/"+tenant+"/estimate", EstimateRequest{
				Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: releaseEps,
			}, nil)
			switch code {
			case http.StatusOK:
			case http.StatusTooManyRequests:
				return i
			default:
				t.Fatalf("%s release %d: status %d", tenant, i, code)
			}
		}
		return maxTries
	}
	nPure := sustained("pure-twin")
	nZCDP := sustained("zcdp-twin")
	t.Logf("pure sustained %d releases, zcdp %d (nominal eps=%g, per-release eps=%g)",
		nPure, nZCDP, nominalEps, releaseEps)
	if nPure != int(nominalEps/releaseEps) {
		t.Errorf("pure twin sustained %d, want exactly %d", nPure, int(nominalEps/releaseEps))
	}
	if nZCDP < 2*nPure {
		t.Errorf("zcdp twin sustained %d, want >= 2x pure's %d", nZCDP, nPure)
	}
}

// A windowed tenant recovers from 429 after one window tick — and cache
// replays stay free even while the budget is exhausted.
func TestWindowedTenantRecoversAfterTick(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 13})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)

	const window = 0.2 // seconds
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "w", Epsilon: 1, WindowSeconds: window,
	}, nil); code != http.StatusCreated {
		t.Fatalf("create windowed tenant: status %d", code)
	}
	seedTables(t, c, "w", 100)

	// Exhaust the window's budget in one release.
	var first EstimateResponse
	if code := c.do("POST", "/v1/tenants/w/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 1,
	}, &first); code != http.StatusOK {
		t.Fatalf("first release: status %d", code)
	}
	if code := c.do("POST", "/v1/tenants/w/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "median", Epsilon: 1,
	}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("overdraw within window: status %d, want 429", code)
	}
	// A byte-identical repeat of the first release is a free replay even
	// with the budget exhausted.
	var replay EstimateResponse
	if code := c.do("POST", "/v1/tenants/w/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 1,
	}, &replay); code != http.StatusOK || !replay.Cached || replay.Value != first.Value {
		t.Fatalf("exhausted-window replay: code=%d cached=%v value=%v (want %v)",
			code, replay.Cached, replay.Value, first.Value)
	}
	// After one window tick the budget refills and the refused release
	// goes through. Poll so a slow CI machine cannot flake the test.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code := c.do("POST", "/v1/tenants/w/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "median", Epsilon: 1,
		}, nil)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusTooManyRequests {
			t.Fatalf("post-tick release: status %d", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("windowed tenant never recovered from 429")
		}
		time.Sleep(25 * time.Millisecond)
	}
	var st TenantStatus
	c.do("GET", "/v1/tenants/w", nil, &st)
	if st.WindowSeconds != window {
		t.Errorf("status window_seconds = %v, want %v", st.WindowSeconds, window)
	}
}

// seedTables provisions the standard metrics table for an existing tenant
// (seedTenant minus the tenant creation).
func seedTables(t *testing.T, c *client, id string, nUsers int) {
	t.Helper()
	code := c.do("POST", "/v1/tenants/"+id+"/tables", CreateTableRequest{
		Name: "metrics",
		Columns: []ColumnSpec{
			{Name: "uid", Kind: "string"},
			{Name: "v", Kind: "float"},
			{Name: "n", Kind: "int"},
			{Name: "grp", Kind: "string"},
		},
		UserColumn: "uid",
	}, nil)
	if code != http.StatusCreated {
		t.Fatalf("create table: status %d", code)
	}
	rows := make([][]any, 0, 2*nUsers)
	for u := 0; u < nUsers; u++ {
		uid := fmt.Sprintf("u%05d", u)
		grp := "a"
		if u%2 == 1 {
			grp = "b"
		}
		for r := 0; r < 2; r++ {
			rows = append(rows, []any{uid, 100 + float64(u%7), float64(u % 50), grp})
		}
	}
	if code := c.do("POST", "/v1/tenants/"+id+"/tables/metrics/rows", InsertRowsRequest{Rows: rows}, nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
}

// ---------- response cache ----------

func TestResponseCacheReplaysAndInvalidates(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 14})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 100, 200)

	req := EstimateRequest{Table: "metrics", Column: "v", Stat: "mean", Epsilon: 0.5}
	var a, b EstimateResponse
	if code := c.do("POST", "/v1/tenants/acme/estimate", req, &a); code != http.StatusOK {
		t.Fatalf("first: status %d", code)
	}
	if code := c.do("POST", "/v1/tenants/acme/estimate", req, &b); code != http.StatusOK {
		t.Fatalf("second: status %d", code)
	}
	if !b.Cached || a.Cached {
		t.Errorf("cached flags: first=%v second=%v, want false/true", a.Cached, b.Cached)
	}
	if b.Value != a.Value {
		t.Errorf("replay value %v != original %v", b.Value, a.Value)
	}
	// Spelling differences canonicalize onto the same entry.
	var d EstimateResponse
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "Metrics", Column: "V", Stat: "MEAN", Epsilon: 0.5,
	}, &d); code != http.StatusOK || !d.Cached {
		t.Errorf("canonicalized replay: code=%d cached=%v", code, d.Cached)
	}
	var st TenantStatus
	c.do("GET", "/v1/tenants/acme", nil, &st)
	if math.Abs(st.Spent-0.5) > 1e-9 {
		t.Errorf("spent %v after 1 release + 2 replays, want 0.5", st.Spent)
	}
	if st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Errorf("tenant cache hits/misses = %d/%d, want 2/1", st.CacheHits, st.CacheMisses)
	}

	// SQL releases cache too.
	q := QueryRequest{SQL: "SELECT AVG(v) FROM metrics", Epsilon: 0.5}
	var q1, q2 QueryResponse
	c.do("POST", "/v1/tenants/acme/query", q, &q1)
	c.do("POST", "/v1/tenants/acme/query", q, &q2)
	if !q2.Cached || q2.Rows[0].Values[0] != q1.Rows[0].Values[0] {
		t.Errorf("SQL replay: cached=%v values %v vs %v", q2.Cached, q2.Rows, q1.Rows)
	}

	// Ingestion moves the data version: the next identical request is a
	// fresh, charged release.
	if code := c.do("POST", "/v1/tenants/acme/tables/metrics/rows", InsertRowsRequest{
		Rows: [][]any{{"fresh-user", 500.0, 1.0, "a"}},
	}, nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	var e EstimateResponse
	if code := c.do("POST", "/v1/tenants/acme/estimate", req, &e); code != http.StatusOK {
		t.Fatalf("post-insert: status %d", code)
	}
	if e.Cached {
		t.Error("post-insert request replayed a stale answer")
	}
	c.do("GET", "/v1/tenants/acme", nil, &st)
	if math.Abs(st.Spent-1.5) > 1e-9 { // 0.5 estimate + 0.5 SQL + 0.5 re-release
		t.Errorf("spent %v, want 1.5", st.Spent)
	}

	// Server-wide counters aggregate the tenant's.
	var ss ServerStats
	c.do("GET", "/v1/stats", nil, &ss)
	if ss.CacheHits != 3 || ss.CacheMisses != 3 {
		t.Errorf("server cache hits/misses = %d/%d, want 3/3", ss.CacheHits, ss.CacheMisses)
	}
}

// ---------- per-record privacy unit ----------

func TestEstimateRecordUnit(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 15})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 1000, 300)

	// Record-level releases on the float and int columns.
	var est EstimateResponse
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 1, Unit: "record",
	}, &est); code != http.StatusOK {
		t.Fatalf("record mean: status %d", code)
	}
	if math.Abs(est.Value-100) > 20 {
		t.Errorf("record mean = %v, want ~100", est.Value)
	}
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "n", Stat: "empirical_mean", Epsilon: 1, Unit: "record",
	}, &est); code != http.StatusOK {
		t.Errorf("record empirical_mean: status %d", code)
	}
	// Explicit "user" unit is the default spelled out.
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "median", Epsilon: 1, Unit: "User",
	}, &est); code != http.StatusOK {
		t.Errorf("explicit user unit: status %d", code)
	}
	// An unknown unit is free to refuse.
	var before, after TenantStatus
	c.do("GET", "/v1/tenants/acme", nil, &before)
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Epsilon: 1, Unit: "household",
	}, nil); code != http.StatusBadRequest {
		t.Errorf("bad unit: status %d, want 400", code)
	}
	c.do("GET", "/v1/tenants/acme", nil, &after)
	if after.Spent != before.Spent {
		t.Errorf("bad unit consumed budget: %v -> %v", before.Spent, after.Spent)
	}
	// The record count release sees 2 rows per user.
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "count", Epsilon: 2, Unit: "record",
	}, &est); code != http.StatusOK {
		t.Fatalf("record count: status %d", code)
	}
	if math.Abs(est.Value-600) > 20 {
		t.Errorf("record count = %v, want ~600", est.Value)
	}
}

// ---------- count stat: Laplace in eps, Gaussian natively in rho ----------

func TestCountStatAcrossBackends(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "pure", 100, 250)
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "z", Epsilon: 2, Accounting: "zcdp",
	}, nil); code != http.StatusCreated {
		t.Fatalf("create zcdp tenant: status %d", code)
	}
	seedTables(t, c, "z", 250)

	// Pure tenant: Laplace count charged in eps.
	var est EstimateResponse
	if code := c.do("POST", "/v1/tenants/pure/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "count", Epsilon: 1,
	}, &est); code != http.StatusOK {
		t.Fatalf("pure count: status %d", code)
	}
	if math.Abs(est.Value-250) > 15 || est.EpsSpent != 1 || est.RhoSpent != 0 {
		t.Errorf("pure count = %+v, want ~250 charged eps=1", est)
	}

	// zCDP tenant: Gaussian count charged natively in rho. (Fresh decode
	// struct: omitempty fields don't overwrite a reused one.)
	const rho = 1e-4
	var zc EstimateResponse
	if code := c.do("POST", "/v1/tenants/z/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "count", Rho: rho,
	}, &zc); code != http.StatusOK {
		t.Fatalf("zcdp native count: status %d", code)
	}
	// sigma = 1/sqrt(2e-4) ~ 70.7: generous tolerance.
	if math.Abs(zc.Value-250) > 400 || zc.RhoSpent != rho || zc.EpsSpent != 0 {
		t.Errorf("zcdp count = %+v, want ~250 charged rho", zc)
	}
	var st TenantStatus
	c.do("GET", "/v1/tenants/z", nil, &st)
	if math.Abs(st.Spent-rho) > 1e-15 {
		t.Errorf("zcdp tenant spent %v rho, want exactly %v (native charge)", st.Spent, rho)
	}

	// A pure tenant must refuse a native-rho cost — the Gaussian mechanism
	// has no finite pure-eps guarantee — without charging anything.
	var before, after TenantStatus
	c.do("GET", "/v1/tenants/pure", nil, &before)
	if code := c.do("POST", "/v1/tenants/pure/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "count", Rho: rho,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("rho on pure tenant: status %d, want 400", code)
	}
	c.do("GET", "/v1/tenants/pure", nil, &after)
	if after.Spent != before.Spent {
		t.Errorf("refused rho cost was charged: %v -> %v", before.Spent, after.Spent)
	}

	// rho is count-only, eps+rho together are ambiguous, and a negative
	// rho is refused outright rather than falling through to eps charging.
	if code := c.do("POST", "/v1/tenants/z/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "mean", Rho: rho,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("rho with stat mean: status %d, want 400", code)
	}
	if code := c.do("POST", "/v1/tenants/z/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "count", Rho: rho, Epsilon: 1,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("eps and rho together: status %d, want 400", code)
	}
	if code := c.do("POST", "/v1/tenants/z/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "count", Rho: -0.5,
	}, nil); code != http.StatusBadRequest {
		t.Errorf("negative rho: status %d, want 400", code)
	}

	// Count needs no column: it privatizes the unit count alone, so a
	// column-less request (or one naming a string column) works.
	var nc EstimateResponse
	if code := c.do("POST", "/v1/tenants/pure/estimate", EstimateRequest{
		Table: "metrics", Stat: "count", Epsilon: 1,
	}, &nc); code != http.StatusOK {
		t.Fatalf("column-less count: status %d", code)
	}
	if math.Abs(nc.Value-250) > 15 {
		t.Errorf("column-less count = %v, want ~250", nc.Value)
	}
	// ...and it shares the cache entry with the column-spelled variant,
	// since the column is canonicalized away.
	var cc EstimateResponse
	if code := c.do("POST", "/v1/tenants/pure/estimate", EstimateRequest{
		Table: "metrics", Column: "grp", Stat: "count", Epsilon: 1,
	}, &cc); code != http.StatusOK || !cc.Cached {
		t.Errorf("string-column count: code=%d cached=%v, want cached replay", code, cc.Cached)
	}
}
