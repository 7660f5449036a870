package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestRespCacheLRUEviction(t *testing.T) {
	c := newRespCache(nil)
	c.cap = 3
	ver := c.version()
	c.putAt("a", 1, ver)
	c.putAt("b", 2, ver)
	c.putAt("c", 3, ver)
	// Touch "a": it becomes most-recently-used, so the next insert must
	// evict "b" (the LRU), not "a" (what drop-on-full would have wiped).
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	c.putAt("d", 4, ver)
	if c.size() != 3 {
		t.Fatalf("size = %d, want 3", c.size())
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("recently-used entry %q evicted", k)
		}
	}
	if got := c.evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// Re-putting an existing key updates in place, no eviction.
	c.putAt("a", 10, ver)
	if v, _ := c.get("a"); v != 10 {
		t.Fatalf("update in place: got %v", v)
	}
	if c.size() != 3 || c.evictions() != 1 {
		t.Fatalf("update evicted: size=%d evictions=%d", c.size(), c.evictions())
	}
}

func TestRespCacheVersionFenceSurvivesLRU(t *testing.T) {
	c := newRespCache(nil)
	ver := c.version()
	c.clear() // version moves
	c.putAt("stale", 1, ver)
	if _, ok := c.get("stale"); ok {
		t.Fatal("stale put landed despite version fence")
	}
	ver2 := c.version()
	c.putAt("fresh", 2, ver2)
	if _, ok := c.get("fresh"); !ok {
		t.Fatal("fresh put missing")
	}
	// clear resets entries but not the eviction counter semantics.
	c.clear()
	if c.size() != 0 {
		t.Fatalf("size after clear = %d", c.size())
	}
	if c.evictions() != 0 {
		t.Fatalf("invalidations counted as evictions: %d", c.evictions())
	}
}

// TestCacheEvictionsInStats drives a tiny cache through the HTTP surface
// and checks the counter lands in /v1/stats and the tenant status.
func TestCacheEvictionsInStats(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 20, Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 1e6, 60)
	tn, _ := srv.Tenant("acme")
	tn.cache.cap = 4 // shrink so distinct releases overflow it

	for i := 0; i < 8; i++ {
		req := EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile",
			P: 0.1 + 0.09*float64(i), Epsilon: 0.01,
		}
		if code := c.do("POST", "/v1/tenants/acme/estimate", req, nil); code != http.StatusOK {
			t.Fatalf("release %d: %d", i, code)
		}
	}
	var st ServerStats
	if code := c.do("GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatal("stats")
	}
	if st.CacheEvictions != 4 {
		t.Fatalf("server cache_evictions = %d, want 4", st.CacheEvictions)
	}
	var tst TenantStatus
	if code := c.do("GET", "/v1/tenants/acme", nil, &tst); code != http.StatusOK {
		t.Fatal("tenant status")
	}
	if tst.CacheEvictions != 4 {
		t.Fatalf("tenant cache_evictions = %d, want 4", tst.CacheEvictions)
	}
	// The 4 survivors still replay for free.
	req := EstimateRequest{Table: "metrics", Column: "v", Stat: "quantile", P: 0.1 + 0.09*7, Epsilon: 0.01}
	var est EstimateResponse
	if code := c.do("POST", "/v1/tenants/acme/estimate", req, &est); code != http.StatusOK {
		t.Fatal("replay")
	}
	if !est.Cached {
		t.Fatal("most recent release not replayed from cache")
	}
}
