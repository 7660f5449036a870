package dpsql

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dp"
	"repro/internal/xrand"
)

func newPopulatedDB(t *testing.T, users, rowsPer int) *DB {
	t.Helper()
	db := NewDB()
	if err := db.Run("CREATE TABLE events (uid STRING USER, v FLOAT, grp STRING)"); err != nil {
		t.Fatal(err)
	}
	tab, err := db.TableByName("events")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	for u := 0; u < users; u++ {
		for r := 0; r < rowsPer; r++ {
			g := "a"
			if u%2 == 1 {
				g = "b"
			}
			err := tab.Insert(Str(fmt.Sprintf("u%04d", u)), Float(100+rng.Gaussian()), Str(g))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// Parallel Exec against a shared DB: every query must succeed and return a
// sane release while others run. Run with -race.
func TestExecConcurrent(t *testing.T) {
	db := newPopulatedDB(t, 200, 3)
	queries := []string{
		"SELECT AVG(v) FROM events",
		"SELECT COUNT(*) FROM events",
		"SELECT MEDIAN(v) FROM events GROUP BY grp",
		"SELECT SUM(v) FROM events WHERE grp = 'a'",
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := xrand.New(uint64(1000 + i))
			res, err := db.Exec(rng, queries[i%len(queries)], 1.0)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			if len(res.Rows) == 0 {
				t.Errorf("worker %d: empty result", i)
			}
		}(i)
	}
	wg.Wait()
}

// Queries racing streaming ingestion: Exec sees a consistent snapshot and
// never fails, even as Insert grows the table under it. Run with -race.
//
// The writers run in lock-step with the Execs: each round starts four
// writers beside one Exec, and each writer inserts until that Exec returns
// or it has written its per-round quota. Inserts overlap every Exec, while
// the table's growth stays bounded (at most 50·4·perRound rows) however the
// scheduler orders the goroutines.
func TestExecDuringInsert(t *testing.T) {
	const rounds, writers, perRound = 50, 4, 100
	db := newPopulatedDB(t, 50, 2)
	tab, err := db.TableByName("events")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < perRound; k++ {
					select {
					case <-stop:
						return
					default:
					}
					uid := fmt.Sprintf("w%d-%d-%d", w, i, k)
					if err := tab.Insert(Str(uid), Float(99.5), Str("a")); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
			}(w)
		}
		rng := xrand.New(uint64(i))
		if _, err := db.Exec(rng, "SELECT AVG(v) FROM events", 0.5); err != nil {
			t.Errorf("exec %d: %v", i, err)
		}
		close(stop)
		wg.Wait()
	}
}

// A shared budget enforced across racing queries: no overdraw, ever.
func TestExecConcurrentBudget(t *testing.T) {
	db := newPopulatedDB(t, 100, 1)
	const perQuery = 0.5
	const allowed = 20
	if err := db.SetBudget(allowed * perQuery); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, refused := 0, 0
	for i := 0; i < 2*allowed; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := xrand.New(uint64(i))
			_, err := db.Exec(rng, "SELECT AVG(v) FROM events", perQuery)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, dp.ErrBudgetExhausted):
				refused++
			default:
				t.Errorf("query %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if ok != allowed || refused != allowed {
		t.Errorf("ok=%d refused=%d, want %d each", ok, refused, allowed)
	}
}

// A statically invalid WHERE clause (unknown column, incomparable kinds)
// must be refused before the budget Spend: data-independent mistakes are
// free, per the serve layer's budget model.
func TestInvalidWhereCostsNoBudget(t *testing.T) {
	db := newPopulatedDB(t, 20, 1)
	if err := db.SetBudget(10); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	for _, sql := range []string{
		"SELECT AVG(v) FROM events WHERE nosuch > 1",
		"SELECT AVG(v) FROM events WHERE grp > 5",
		"SELECT AVG(v) FROM events WHERE v = 'abc'",
	} {
		if _, err := db.Exec(rng, sql, 1.0); err == nil {
			t.Errorf("%q: want error", sql)
		}
	}
	if rem := db.Remaining(); rem != 10 {
		t.Errorf("invalid WHERE clauses consumed budget: remaining %v, want 10", rem)
	}
	// A valid WHERE still works and is charged.
	if _, err := db.Exec(rng, "SELECT AVG(v) FROM events WHERE grp = 'a'", 1.0); err != nil {
		t.Fatal(err)
	}
	if rem := db.Remaining(); rem != 9 {
		t.Errorf("remaining %v, want 9", rem)
	}
}

// Concurrent UserMeans readers racing ingestion must be race-free too
// (the serve layer's estimate path). As in TestExecDuringInsert, the
// writer runs in lock-step with the reads: it inserts beside each
// UserMeans until that read returns or the per-round quota is written.
func TestUserMeansDuringInsert(t *testing.T) {
	const rounds, perRound = 200, 50
	db := newPopulatedDB(t, 50, 2)
	tab, err := db.TableByName("events")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for k := 0; k < perRound; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := tab.Insert(Str(fmt.Sprintf("x%d-%d", i, k)), Float(1), Str("b")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}()
		xs, err := tab.UserMeans("v")
		close(stop)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		if len(xs) < 50 {
			t.Errorf("lost users: %d", len(xs))
		}
	}
}
