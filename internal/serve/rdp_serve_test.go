package serve

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dp"
)

// ---------- rdp accounting over the wire ----------

func TestCreateTenantRDPConfig(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 31})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)

	var st TenantStatus
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "r", Epsilon: 2, Accounting: "rdp",
	}, &st); code != http.StatusCreated {
		t.Fatalf("create rdp tenant: status %d", code)
	}
	if st.Accounting != "rdp" || st.Unit != "rdp" {
		t.Errorf("status accounting/unit = %q/%q, want rdp/rdp", st.Accounting, st.Unit)
	}
	if st.Delta != 1e-6 {
		t.Errorf("default delta = %v, want 1e-6", st.Delta)
	}
	// The rdp scalar views are the (ε, δ) conversion: total is the
	// nominal ε, nothing spent yet, the full order grid echoed.
	if st.Total != 2 || st.TotalEpsilon != 2 || st.Spent != 0 || st.SpentEpsilon != 0 {
		t.Errorf("fresh rdp budget view = %+v", st)
	}
	def := dp.DefaultRDPOrders()
	if len(st.Orders) != len(def) || st.Orders[0] != def[0] || st.Orders[len(st.Orders)-1] != 64 {
		t.Errorf("orders = %v, want the default grid %v", st.Orders, def)
	}
	if len(st.SpentRDP) != len(st.Orders) {
		t.Errorf("spent_rdp has %d entries for %d orders", len(st.SpentRDP), len(st.Orders))
	}

	// A custom grid is normalized (sorted, deduped) and echoed.
	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "r2", Epsilon: 20, Accounting: "rdp", Orders: []float64{8, 2, 8, 4},
	}, &st); code != http.StatusCreated {
		t.Fatalf("create custom-grid tenant: status %d", code)
	}
	if len(st.Orders) != 3 || st.Orders[0] != 2 || st.Orders[1] != 4 || st.Orders[2] != 8 {
		t.Errorf("normalized orders = %v, want [2 4 8]", st.Orders)
	}

	// Config mistakes are refused: orders without rdp, an invalid order,
	// and a grid that cannot certify the target at any order.
	for i, bad := range []CreateTenantRequest{
		{ID: "x1", Epsilon: 1, Orders: []float64{2, 4}},
		{ID: "x2", Epsilon: 1, Accounting: "zcdp", Orders: []float64{2, 4}},
		{ID: "x3", Epsilon: 1, Accounting: "rdp", Orders: []float64{1}},
		{ID: "x4", Epsilon: 0.01, Accounting: "rdp", Orders: []float64{2, 4}},
	} {
		if code := c.do("POST", "/v1/tenants", bad, nil); code != http.StatusBadRequest {
			t.Errorf("bad config %d: status %d, want 400", i, code)
		}
	}
}

// After releases, the per-order spend vector is exposed and consistent:
// strictly increasing in α for pure+Gaussian spends, with the scalar
// view equal to the best order's conversion.
func TestRDPTenantStatusPerOrderSpend(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 32, Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)

	if code := c.do("POST", "/v1/tenants", CreateTenantRequest{
		ID: "acme", Epsilon: 4, Accounting: "rdp",
	}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	seedTables(t, c, "acme", 150)
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "median", Epsilon: 0.1,
	}, nil); code != http.StatusOK {
		t.Fatalf("median release: %d", code)
	}
	// A natively-ρ Gaussian count lands on the same ledger as curve ρα.
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Stat: "count", Rho: 0.001,
	}, nil); code != http.StatusOK {
		t.Fatalf("rho count release: %d", code)
	}
	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if len(st.SpentRDP) != len(st.Orders) || len(st.Orders) == 0 {
		t.Fatalf("per-order spend missing: %d spends, %d orders", len(st.SpentRDP), len(st.Orders))
	}
	for i := range st.Orders {
		if st.SpentRDP[i] <= 0 {
			t.Errorf("order %v spent %v, want > 0 after releases", st.Orders[i], st.SpentRDP[i])
		}
		if i > 0 && st.SpentRDP[i] <= st.SpentRDP[i-1] {
			t.Errorf("per-order spend not increasing in alpha: %v", st.SpentRDP)
		}
	}
	if st.BestOrder == 0 {
		t.Errorf("best_order = 0, want the certifying alpha")
	}
	// The scalar view is the conversion at the best order.
	i := -1
	for j, a := range st.Orders {
		if a == st.BestOrder {
			i = j
		}
	}
	if i < 0 {
		t.Fatalf("best_order %v not on the grid %v", st.BestOrder, st.Orders)
	}
	want := dp.RDPToDP(st.SpentRDP[i], st.Orders[i], st.Delta)
	if math.Abs(st.Spent-want) > 1e-12 {
		t.Errorf("spent = %v, want conversion at best order %v = %v", st.Spent, st.BestOrder, want)
	}
	if st.SpentEpsilon != st.Spent {
		t.Errorf("spent_epsilon %v != spent %v (rdp scalar views are the conversion)", st.SpentEpsilon, st.Spent)
	}
}

// A data dir holding all three backends at once — pure, zcdp, and rdp
// (plus a windowed rdp) — boots with every tenant's spend intact: the
// rdp tenant's native per-order vector survives snapshot + WAL-tail
// replay componentwise, never regressing. The crash lands after a
// mid-stream Flush plus further releases, so recovery exercises both the
// snapshot and the tail.
func TestMixedBackendsDataDirBoot(t *testing.T) {
	dir := t.TempDir()
	srvA, cA, stopA := openDurable(t, dir, 41)
	for _, req := range []CreateTenantRequest{
		{ID: "pure-t", Epsilon: 16},
		{ID: "zcdp-t", Epsilon: 16, Accounting: "zcdp"},
		{ID: "rdp-t", Epsilon: 4, Accounting: "rdp"},
		{ID: "rdpwin-t", Epsilon: 4, Accounting: "rdp", WindowSeconds: 3600},
	} {
		if code := cA.do("POST", "/v1/tenants", req, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", req.ID, code)
		}
		seedTables(t, cA, req.ID, 100)
	}
	tenants := []string{"pure-t", "zcdp-t", "rdp-t", "rdpwin-t"}
	spend := func(c *client, round int) {
		for _, id := range tenants {
			if code := c.do("POST", "/v1/tenants/"+id+"/estimate", EstimateRequest{
				Table: "metrics", Column: "v", Stat: "quantile",
				P: 0.2 + 0.1*float64(round), Epsilon: 0.25,
			}, nil); code != http.StatusOK {
				t.Fatalf("%s quantile round %d: status %d", id, round, code)
			}
		}
		// The ρ-native Gaussian count on the backends that can price it.
		for _, id := range []string{"zcdp-t", "rdp-t"} {
			if code := c.do("POST", "/v1/tenants/"+id+"/estimate", EstimateRequest{
				Table: "metrics", Stat: "count", Rho: 0.001 * (1 + float64(round)*1e-6),
			}, nil); code != http.StatusOK {
				t.Fatalf("%s rho count round %d: status %d", id, round, code)
			}
		}
	}
	spend(cA, 0)
	// Mid-stream compaction: recovery must stitch snapshot + WAL tail.
	if err := srvA.Flush(); err != nil {
		t.Fatal(err)
	}
	spend(cA, 1)
	before := map[string]TenantStatus{}
	for _, id := range tenants {
		var st TenantStatus
		if code := cA.do("GET", "/v1/tenants/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status %s: %d", id, code)
		}
		if st.Spent <= 0 {
			t.Fatalf("%s pre-crash spend = %v, want > 0", id, st.Spent)
		}
		before[id] = st
	}
	stopA() // crash: no Close, no final flush

	srvB, cB, stopB := openDurable(t, dir, 42)
	defer stopB()
	defer srvB.Close()
	for _, id := range tenants {
		var after TenantStatus
		if code := cB.do("GET", "/v1/tenants/"+id, nil, &after); code != http.StatusOK {
			t.Fatalf("recovered status %s: %d", id, code)
		}
		b := before[id]
		if after.Accounting != b.Accounting || after.Unit != b.Unit {
			t.Fatalf("%s recovered as %s/%s, was %s/%s", id, after.Accounting, after.Unit, b.Accounting, b.Unit)
		}
		if after.Spent < b.Spent || after.SpentEpsilon < b.SpentEpsilon {
			t.Fatalf("%s spend refilled: %v -> %v (eps view %v -> %v)",
				id, b.Spent, after.Spent, b.SpentEpsilon, after.SpentEpsilon)
		}
		if after.Total != b.Total {
			t.Fatalf("%s ceiling changed: %v -> %v", id, b.Total, after.Total)
		}
		if b.Unit == "rdp" {
			if len(after.Orders) != len(b.Orders) || len(after.SpentRDP) != len(b.SpentRDP) {
				t.Fatalf("%s rdp grid changed: %d/%d orders, %d/%d spends",
					id, len(after.Orders), len(b.Orders), len(after.SpentRDP), len(b.SpentRDP))
			}
			for i := range b.Orders {
				if after.Orders[i] != b.Orders[i] {
					t.Fatalf("%s order %d changed: %v -> %v", id, i, b.Orders[i], after.Orders[i])
				}
				if after.SpentRDP[i] < b.SpentRDP[i] {
					t.Fatalf("%s per-order spend regressed at alpha=%v: %v -> %v",
						id, b.Orders[i], b.SpentRDP[i], after.SpentRDP[i])
				}
			}
		}
		// The recovered tenant still answers releases from recovered rows.
		if code := cB.do("POST", "/v1/tenants/"+id+"/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "median", Epsilon: 0.25,
		}, nil); code != http.StatusOK {
			t.Fatalf("%s post-recovery release: status %d", id, code)
		}
	}
}

// The headline three-way ordering over the wire: with the same nominal
// (ε, δ) budget and the same mixed Laplace+Gaussian stream, the rdp twin
// sustains at least as many releases as the zcdp twin, which sustains at
// least twice the pure twin — the serve-level mirror of the updp-bench
// -compare duel. (The pure twin takes the count releases through Laplace
// at ε₀, since the Gaussian is unrepresentable on its backend.)
func TestRDPTenantSustainsMostReleases(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 33, Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)

	const (
		nominalEps = 0.5
		releaseEps = 0.005
		rho0       = releaseEps * releaseEps / 2 // the zCDP price of ε₀: matched streams
		maxTries   = 2000
	)
	seedTenant(t, c, "pure-twin", nominalEps, 120)
	for _, req := range []CreateTenantRequest{
		{ID: "zcdp-twin", Epsilon: nominalEps, Accounting: "zcdp"},
		{ID: "rdp-twin", Epsilon: nominalEps, Accounting: "rdp"},
	} {
		if code := c.do("POST", "/v1/tenants", req, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", req.ID, code)
		}
		seedTables(t, c, req.ID, 120)
	}
	sustained := func(tenant string, rhoNative bool) int {
		for i := 0; i < maxTries; i++ {
			var req EstimateRequest
			if i%2 == 1 {
				// Gaussian count; the tiny rho jitter keeps each release
				// byte-distinct so none is a free cache replay.
				req = EstimateRequest{Table: "metrics", Stat: "count", Rho: rho0 * (1 + float64(i)*1e-9)}
				if !rhoNative {
					req = EstimateRequest{Table: "metrics", Stat: "count", Epsilon: releaseEps * (1 + float64(i)*1e-9)}
				}
			} else {
				p := 0.01 + 0.98*float64(i)/maxTries
				req = EstimateRequest{Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: releaseEps}
			}
			code := c.do("POST", "/v1/tenants/"+tenant+"/estimate", req, nil)
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
	nPure := sustained("pure-twin", false)
	nZCDP := sustained("zcdp-twin", true)
	nRDP := sustained("rdp-twin", true)
	t.Logf("mixed workload sustained: pure=%d zcdp=%d rdp=%d (nominal eps=%g, per-release eps=%g)",
		nPure, nZCDP, nRDP, nominalEps, releaseEps)
	if nZCDP < 2*nPure {
		t.Errorf("zcdp sustained %d, want >= 2x pure's %d", nZCDP, nPure)
	}
	if nRDP < nZCDP {
		t.Errorf("rdp sustained %d < zcdp's %d", nRDP, nZCDP)
	}
}
