package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// TestAuditMatchesLedger is the acceptance invariant: for a pure tenant
// the audit log replays exactly the releases the ledger charged — same
// count, and NativeCost summing to TenantStatus.Spent — while cache
// replays and budget refusals leave no record.
func TestAuditMatchesLedger(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 11, Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 2, 100)
	// The whole test runs in a burst the odometer would coalesce into one
	// sample (its clock is wall time); inject a clock that advances a
	// second per reading so the burn rate has a measurable baseline.
	tn, ok := srv.Tenant("acme")
	if !ok {
		t.Fatal("tenant not registered")
	}
	fake := time.Unix(1_700_000_000, 0)
	tn.odo.SetNow(func() time.Time { fake = fake.Add(time.Second); return fake })

	// Five distinct charged releases: four estimates and one SQL query.
	for i := 0; i < 4; i++ {
		p := 0.2 + 0.15*float64(i)
		if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: 0.25,
		}, nil); code != http.StatusOK {
			t.Fatalf("estimate %d: %d", i, code)
		}
	}
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 0.5,
	}, nil); code != http.StatusOK {
		t.Fatal("query")
	}
	// A cache replay charges nothing and must not be audited.
	var q QueryResponse
	if code := c.do("POST", "/v1/tenants/acme/query", QueryRequest{
		SQL: "SELECT COUNT(*) FROM metrics", Epsilon: 0.5,
	}, &q); code != http.StatusOK || !q.Cached {
		t.Fatalf("replay: code=%d cached=%v", code, q.Cached)
	}
	// A budget refusal charges nothing and must not be audited
	// (spent = 4*0.25 + 0.5 = 1.5 of 2; 0.75 overdraws).
	if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "metrics", Column: "v", Stat: "median", Epsilon: 0.75,
	}, nil); code != http.StatusTooManyRequests {
		t.Fatal("overdraw should refuse")
	}

	var st TenantStatus
	if code := c.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("status")
	}
	var audit AuditResponse
	if code := c.do("GET", "/v1/tenants/acme/audit", nil, &audit); code != http.StatusOK {
		t.Fatal("audit")
	}
	if audit.Tenant != "acme" || audit.Total != 5 || len(audit.Records) != 5 {
		t.Fatalf("audit page: tenant=%q total=%d records=%d, want acme/5/5",
			audit.Tenant, audit.Total, len(audit.Records))
	}
	if st.AuditRecords != audit.Total {
		t.Fatalf("TenantStatus.AuditRecords=%d, audit Total=%d", st.AuditRecords, audit.Total)
	}
	var sum float64
	paths := map[string]int{}
	for i, r := range audit.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d (oldest first, dense)", i, r.Seq, i+1)
		}
		if r.ReleaseID == "" || r.Unit != "eps" || r.NativeCost <= 0 {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
		sum += r.NativeCost
		paths[r.Path]++
	}
	if paths["estimate"] != 4 || paths["query"] != 1 {
		t.Fatalf("audited paths %v, want 4 estimates + 1 query", paths)
	}
	if math.Abs(sum-st.Spent) > 1e-12 {
		t.Fatalf("audit sum %v != ledger spent %v", sum, st.Spent)
	}
	if st.BurnPerSecond <= 0 {
		t.Fatalf("burn rate %v after 5 releases, want > 0", st.BurnPerSecond)
	}
}

// TestAuditPagination walks the log in pages of 2 and checks the cursor
// contract: NextAfter chains pages with no gaps or repeats and is absent
// on the last page; bad parameters are 400s.
func TestAuditPagination(t *testing.T) {
	srv := mustOpen(t, Options{Seed: 12, Workers: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := newClient(t, ts.URL)
	seedTenant(t, c, "acme", 10, 60)

	const releases = 5
	for i := 0; i < releases; i++ {
		p := 0.1 + 0.15*float64(i)
		if code := c.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "metrics", Column: "v", Stat: "quantile", P: p, Epsilon: 0.1,
		}, nil); code != http.StatusOK {
			t.Fatalf("estimate %d: %d", i, code)
		}
	}
	var seqs []uint64
	after, pages := uint64(0), 0
	for {
		var page AuditResponse
		path := fmt.Sprintf("/v1/tenants/acme/audit?limit=2&after=%d", after)
		if code := c.do("GET", path, nil, &page); code != http.StatusOK {
			t.Fatalf("page after=%d: %d", after, code)
		}
		pages++
		for _, r := range page.Records {
			seqs = append(seqs, r.Seq)
		}
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
		if pages > releases {
			t.Fatal("pagination does not terminate")
		}
	}
	if pages != 3 || len(seqs) != releases {
		t.Fatalf("walked %d pages, %d records; want 3 pages, %d records", pages, len(seqs), releases)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("page walk out of order: %v", seqs)
		}
	}
	// Cursor past the end: empty page, no NextAfter.
	var tail AuditResponse
	if code := c.do("GET", "/v1/tenants/acme/audit?after=999", nil, &tail); code != http.StatusOK {
		t.Fatal("tail page")
	}
	if len(tail.Records) != 0 || tail.NextAfter != 0 {
		t.Fatalf("past-the-end page: %+v", tail)
	}
	// Malformed parameters.
	if code := c.do("GET", "/v1/tenants/acme/audit?after=x", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("after=x: %d, want 400", code)
	}
	if code := c.do("GET", "/v1/tenants/acme/audit?limit=0", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("limit=0: %d, want 400", code)
	}
}

// TestAuditSurvivesCrash: on a durable server every acknowledged
// release's audit line is fsynced before the answer goes out, so a crash
// (listener killed, no Close/flush) loses nothing: the reopened log
// replays the same records and still sums to the recovered spend.
func TestAuditSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	_, cA, stopA := openDurable(t, dir, 13)
	if code := cA.do("POST", "/v1/tenants", CreateTenantRequest{ID: "acme", Epsilon: 10}, nil); code != http.StatusCreated {
		t.Fatal("create")
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables", CreateTableRequest{
		Name:       "m",
		Columns:    []ColumnSpec{{Name: "uid", Kind: "string"}, {Name: "v", Kind: "float"}},
		UserColumn: "uid",
	}, nil); code != http.StatusCreated {
		t.Fatal("table")
	}
	rows := make([][]any, 80)
	for u := range rows {
		rows[u] = []any{fmt.Sprintf("u%02d", u), float64(u)}
	}
	if code := cA.do("POST", "/v1/tenants/acme/tables/m/rows", InsertRowsRequest{Rows: rows}, nil); code != http.StatusOK {
		t.Fatal("insert")
	}
	for i := 0; i < 3; i++ {
		p := 0.2 + 0.2*float64(i)
		if code := cA.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
			Table: "m", Column: "v", Stat: "quantile", P: p, Epsilon: 0.5,
		}, nil); code != http.StatusOK {
			t.Fatalf("release %d: %d", i, code)
		}
	}
	var auditA AuditResponse
	if code := cA.do("GET", "/v1/tenants/acme/audit", nil, &auditA); code != http.StatusOK {
		t.Fatal("pre-crash audit")
	}
	if auditA.Total != 3 {
		t.Fatalf("pre-crash audit total %d, want 3", auditA.Total)
	}
	stopA() // crash: no Close, no flush

	srvB, cB, stopB := openDurable(t, dir, 14)
	defer stopB()
	defer srvB.Close()
	var auditB AuditResponse
	if code := cB.do("GET", "/v1/tenants/acme/audit", nil, &auditB); code != http.StatusOK {
		t.Fatal("post-crash audit")
	}
	if auditB.Total != auditA.Total || len(auditB.Records) != len(auditA.Records) {
		t.Fatalf("crash lost audit lines: %d/%d -> %d/%d",
			auditA.Total, len(auditA.Records), auditB.Total, len(auditB.Records))
	}
	var sum float64
	for i, r := range auditB.Records {
		a := auditA.Records[i]
		if r.Seq != a.Seq || r.ReleaseID != a.ReleaseID || r.NativeCost != a.NativeCost {
			t.Fatalf("record %d changed across crash: %+v -> %+v", i, a, r)
		}
		sum += r.NativeCost
	}
	var st TenantStatus
	if code := cB.do("GET", "/v1/tenants/acme", nil, &st); code != http.StatusOK {
		t.Fatal("recovered status")
	}
	if math.Abs(sum-st.Spent) > 1e-12 {
		t.Fatalf("recovered audit sum %v != recovered spend %v", sum, st.Spent)
	}
	// The recovered log keeps appending with the same seq discipline.
	if code := cB.do("POST", "/v1/tenants/acme/estimate", EstimateRequest{
		Table: "m", Column: "v", Stat: "median", Epsilon: 0.5,
	}, nil); code != http.StatusOK {
		t.Fatal("post-recovery release")
	}
	var auditC AuditResponse
	if code := cB.do("GET", "/v1/tenants/acme/audit", nil, &auditC); code != http.StatusOK {
		t.Fatal("post-recovery audit")
	}
	if auditC.Total != auditA.Total+1 || auditC.Records[len(auditC.Records)-1].Seq != auditA.Total+1 {
		t.Fatalf("post-recovery append broke seq: total=%d last=%+v",
			auditC.Total, auditC.Records[len(auditC.Records)-1])
	}
}

// TestMemAuditRingWraparound drives the in-memory audit ring three times
// round plus a partial lap and checks that retention, pagination order and
// content, the seq-gap guard, and the bounded backing array all hold
// across the wrap.
func TestMemAuditRingWraparound(t *testing.T) {
	const total = 3*memAuditMax + 7
	a := &memAudit{}
	for i := 1; i <= total; i++ {
		if err := a.Append(&store.AuditRecord{ReleaseID: fmt.Sprintf("r%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
	if len(a.recs) != memAuditMax || cap(a.recs) > memAuditMax {
		t.Fatalf("ring len %d cap %d, want len %d and cap <= %d", len(a.recs), cap(a.recs), memAuditMax, memAuditMax)
	}

	const oldest = total - memAuditMax + 1
	// checkPage asserts Page(after, limit) is the consecutive run of
	// retained seqs starting past after (or at the oldest retained one).
	checkPage := func(after uint64, limit int) {
		t.Helper()
		page, err := a.Page(after, limit)
		if err != nil {
			t.Fatal(err)
		}
		first := max(after+1, oldest)
		want := min(limit, max(0, total-int(first)+1))
		if len(page) != want {
			t.Fatalf("Page(%d, %d): %d records, want %d", after, limit, len(page), want)
		}
		for k, r := range page {
			seq := first + uint64(k)
			if r.Seq != seq || r.ReleaseID != fmt.Sprintf("r%d", seq) {
				t.Fatalf("Page(%d, %d)[%d] = seq %d %q, want seq %d r%d", after, limit, k, r.Seq, r.ReleaseID, seq, seq)
			}
		}
	}
	// The physical end of the array holds seq 3·memAuditMax; a page
	// around it reads across the wrap.
	wrap := uint64(3 * memAuditMax)
	for _, after := range []uint64{wrap - 3, wrap - 1, wrap, wrap + 2} {
		checkPage(after, 6)
	}
	// Pages that reach into the discarded prefix start at the oldest
	// retained record.
	for _, after := range []uint64{0, 100, oldest - 1} {
		checkPage(after, 5)
	}
	checkPage(0, memAuditMax+10) // the whole ring, oldest to newest
	checkPage(total-2, 10)       // the newest two
	checkPage(total, 10)         // nothing past the newest

	// Tamper with the newest record: the next append must see the gap.
	n := len(a.recs)
	a.recs[(a.head+n-1)%n].Seq--
	if err := a.Append(&store.AuditRecord{ReleaseID: "r-gap"}); err == nil || !strings.Contains(err.Error(), "audit seq gap") {
		t.Fatalf("Append over a tampered ring: %v, want gap error", err)
	}
	if got := a.Len(); got != total {
		t.Fatalf("Len after refused append = %d, want %d", got, total)
	}
}
