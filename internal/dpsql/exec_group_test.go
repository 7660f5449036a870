package dpsql

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dp"
	"repro/internal/xrand"
)

// buildClampFix creates a table where every user contributes rows to
// three groups in a known per-user first-seen order: user i's rows
// arrive in group order (i%3, i+1%3, i+2%3), so the admitted group set
// at any contribution bound is exactly predictable. 12 users, groups
// a/b/c with 4 users first-seen in each.
func buildClampFix(t *testing.T, shards int) (*DB, *Table) {
	t.Helper()
	db := NewDB()
	db.SetDefaultShards(shards)
	tab, err := db.Create("events",
		[]Column{{Name: "uid", Kind: KindString}, {Name: "v", Kind: KindFloat}, {Name: "grp", Kind: KindString}},
		"uid")
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"a", "b", "c"}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 12; i++ {
			uid := fmt.Sprintf("u%02d", i)
			if err := tab.Insert(Str(uid), Float(float64(10*i+pass)), Str(groups[(i+pass)%3])); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, tab
}

// groupCounts runs COUNT(*) GROUP BY grp at a huge ε (noise ~1e-6) and
// rounds, so the released counts equal the exact post-clamp user counts.
func groupCounts(t *testing.T, db *DB, bound int) map[string]int {
	t.Helper()
	res, err := db.ExecTraced(xrand.New(11), "SELECT COUNT(*) FROM events GROUP BY grp", 1e6, ExecOpts{GroupBound: bound})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int{}
	for _, r := range res.Rows {
		out[r.Group.String()] = int(math.Round(r.Value))
	}
	return out
}

// TestGroupedContributionClamp: the per-user group-membership cap admits
// each user to its first `bound` distinct groups in its own row order
// and drops the rest; -1 disables clamping. Counts are checked exactly
// (huge ε), on single-shard and sharded twins.
func TestGroupedContributionClamp(t *testing.T) {
	for _, shards := range []int{1, 4} {
		db, _ := buildClampFix(t, shards)
		// Bound 1: each user lands only in its first-seen group -> 4 users
		// per group. Default (0) must behave identically.
		for _, b := range []int{0, 1} {
			got := groupCounts(t, db, b)
			want := map[string]int{"a": 4, "b": 4, "c": 4}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d bound=%d: counts %v, want %v", shards, b, got, want)
			}
		}
		// Bound 2: first two groups admitted -> 8 users per group.
		if got, want := groupCounts(t, db, 2), map[string]int{"a": 8, "b": 8, "c": 8}; !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d bound=2: counts %v, want %v", shards, got, want)
		}
		// Unbounded legacy mode: nothing dropped -> all 12 users everywhere.
		if got, want := groupCounts(t, db, -1), map[string]int{"a": 12, "b": 12, "c": 12}; !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d bound=-1: counts %v, want %v", shards, got, want)
		}
	}
}

// TestGroupedParallelPricing: one grouped release over k groups charges
// exactly ONE release's cost — on the pure, zCDP, and RDP backends (the
// RDP per-order vector checked componentwise) — regardless of k, and
// the bound>1 / unbounded modes still charge the requested total.
func TestGroupedParallelPricing(t *testing.T) {
	const eps = 0.5
	const q = "SELECT AVG(v) FROM events GROUP BY grp" // k=3 groups

	run := func(led dp.Ledger, bound int) *Result {
		t.Helper()
		db, _ := buildTwin(t, 4)
		db.SetLedger(led)
		res, err := db.ExecTraced(xrand.New(3), q, eps, ExecOpts{GroupBound: bound})
		if err != nil {
			t.Fatal(err)
		}
		if res.EpsSpent != eps {
			t.Fatalf("EpsSpent = %v, want %v", res.EpsSpent, eps)
		}
		return res
	}

	// Pure ε: spend is exactly eps, not 3·eps and not eps/3-per-group sums.
	bl, err := dp.NewBasicLedger(10)
	if err != nil {
		t.Fatal(err)
	}
	run(bl, 0)
	if got := bl.Spent(); got != eps {
		t.Fatalf("pure spend = %v, want %v", got, eps)
	}

	// zCDP: the one deduction converts to ε²/2.
	zl, err := dp.NewZCDPLedger(4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	run(zl, 0)
	if got, want := zl.Spent(), dp.PureToZCDP(eps); math.Abs(got-want) > 1e-15 {
		t.Fatalf("zcdp spend = %v, want %v", got, want)
	}

	// RDP: the per-order spent vector equals one pure-ε release's curve.
	rl, err := dp.NewRDPLedger(2, 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	run(rl, 0)
	orders := rl.Orders()
	for i, s := range rl.SpentByOrder() {
		if want := dp.PureRDP(orders[i], eps); math.Abs(s-want) > 1e-12 {
			t.Fatalf("rdp spend at alpha=%v: %v, want %v", orders[i], s, want)
		}
	}

	// Bound 2 (sequential fallback) and -1 (legacy even split) both still
	// charge the requested total — the bound moves per-group accuracy,
	// never the bill.
	for _, b := range []int{2, -1} {
		bl2, err := dp.NewBasicLedger(10)
		if err != nil {
			t.Fatal(err)
		}
		run(bl2, b)
		if got := bl2.Spent(); got != eps {
			t.Fatalf("bound=%d: pure spend = %v, want %v", b, got, eps)
		}
	}
}

// TestGroupedWindowedRefill: a grouped release drains a windowed budget,
// a second inside the same window overdraws, and the next window refills
// it — the decorator composes with parallel-priced grouped spends.
func TestGroupedWindowedRefill(t *testing.T) {
	db, _ := buildTwin(t, 4)
	inner, err := dp.NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := dp.NewWindowedLedger(inner, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	wl.SetNow(func() time.Time { return now })
	db.SetLedger(wl)

	const q = "SELECT AVG(v) FROM events GROUP BY grp"
	if _, err := db.Exec(xrand.New(5), q, 1); err != nil {
		t.Fatalf("first grouped release: %v", err)
	}
	if _, err := db.Exec(xrand.New(5), q, 1); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("same-window overdraw: got %v, want ErrBudgetExhausted", err)
	}
	now = now.Add(2 * time.Hour)
	if _, err := db.Exec(xrand.New(5), q, 1); err != nil {
		t.Fatalf("grouped release after window roll: %v", err)
	}
}

// TestGroupedOverdraw: a grouped release that exceeds the budget fails
// with errors.Is(…, dp.ErrBudgetExhausted) and burns nothing, and the
// budget remains usable for a smaller grouped release.
func TestGroupedOverdraw(t *testing.T) {
	db, _ := buildTwin(t, 4)
	led, err := dp.NewBasicLedger(0.4)
	if err != nil {
		t.Fatal(err)
	}
	db.SetLedger(led)
	const q = "SELECT AVG(v) FROM events GROUP BY grp"
	if _, err := db.Exec(xrand.New(5), q, 0.5); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("overdraw: got %v, want ErrBudgetExhausted", err)
	}
	if got := led.Spent(); got != 0 {
		t.Fatalf("failed release burned budget: spent %v", got)
	}
	if _, err := db.Exec(xrand.New(5), q, 0.3); err != nil {
		t.Fatalf("affordable grouped release after refusal: %v", err)
	}
}

// TestGroupedBadBound: bounds below -1 are rejected before any spend.
func TestGroupedBadBound(t *testing.T) {
	db, _ := buildTwin(t, 1)
	led, err := dp.NewBasicLedger(1)
	if err != nil {
		t.Fatal(err)
	}
	db.SetLedger(led)
	_, err = db.ExecTraced(xrand.New(1), "SELECT COUNT(*) FROM events GROUP BY grp", 0.5, ExecOpts{GroupBound: -2})
	if !errors.Is(err, ErrBadGroupBound) {
		t.Fatalf("got %v, want ErrBadGroupBound", err)
	}
	if led.Spent() != 0 {
		t.Fatalf("invalid bound burned budget: spent %v", led.Spent())
	}
}

// TestImportStraddlingStateRehashes: a hand-built snapshot whose
// recorded per-row placement ("shard_of", written by older builds)
// splits every user across both shards still imports with every user in
// its hash shard, so its grouped COUNT and UserMeans are bit-identical to
// the single-shard twin's.
func TestImportStraddlingStateRehashes(t *testing.T) {
	// Eight users, three rows each in different groups; shard_of assigns
	// row j of every user to shard j%2, so every user straddles.
	var rows, shardOf []string
	groups := []string{"a", "b", "c"}
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			rows = append(rows, fmt.Sprintf(`[{"k":2,"s":"u%d"},{"k":0,"f":%g},{"k":2,"s":"%s"}]`, i, 0.1*float64(i)+1.7*float64(j), groups[j]))
			shardOf = append(shardOf, fmt.Sprint(j%2))
		}
	}
	doc := `{"name":"events","columns":[{"name":"uid","kind":2},{"name":"v","kind":0},{"name":"grp","kind":2}],` +
		`"user_col":"uid","shards":2,"rows":[` + strings.Join(rows, ",") + `],"shard_of":[` + strings.Join(shardOf, ",") + `]}`
	var st TableState
	if err := json.Unmarshal([]byte(doc), &st); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	tab2, err := db2.Import(st)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.NumShards() != 2 {
		t.Fatalf("imported shards = %d", tab2.NumShards())
	}
	checkHashPlaced(t, tab2)
	db1 := NewDB()
	db1.SetDefaultShards(1)
	tab1, err := db1.Import(st)
	if err != nil {
		t.Fatal(err)
	}

	m1, err := tab1.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tab2.UserMeans("v")
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(m1, m2) {
		t.Fatalf("UserMeans: %v (1 shard) vs %v (2 shards)", m1, m2)
	}
	for _, bound := range []int{1, 2, -1} {
		r1, err := db1.ExecTraced(xrand.New(9), "SELECT COUNT(*) FROM events GROUP BY grp", 1e6, ExecOpts{GroupBound: bound})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := db2.ExecTraced(xrand.New(9), "SELECT COUNT(*) FROM events GROUP BY grp", 1e6, ExecOpts{GroupBound: bound})
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Rows) != len(r2.Rows) {
			t.Fatalf("bound %d: %d vs %d groups", bound, len(r1.Rows), len(r2.Rows))
		}
		for i := range r1.Rows {
			if r1.Rows[i].Group.String() != r2.Rows[i].Group.String() || !sameBits(r1.Rows[i].Values, r2.Rows[i].Values) {
				t.Fatalf("bound %d row %d: %v %v vs %v %v", bound, i,
					r1.Rows[i].Group, r1.Rows[i].Values, r2.Rows[i].Group, r2.Rows[i].Values)
			}
		}
		if bound == 1 {
			// Every user's first-seen group is "a", so only "a" releases,
			// with an (exact, huge-ε) count of all eight users.
			got := map[string]int{}
			for _, r := range r2.Rows {
				got[r.Group.String()] = int(math.Round(r.Value))
			}
			if want := map[string]int{"a": 8}; !reflect.DeepEqual(got, want) {
				t.Fatalf("bound 1: counts %v, want %v", got, want)
			}
		}
	}
}

// sameBits reports whether two float slices are identical bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
