package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dp"
	"repro/internal/dpsql"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/xrand"
	"repro/updp"
)

// The layer-probe phase of the traced run: timed calls into each
// package's exported functions on the workload's own generated data,
// each wrapped in a span under one "probes" span.

type prober struct {
	b      *bench
	parent int
	m      map[string]metric
}

// probeBudget bounds the time one probe keeps repeating its call.
const probeBudget = 150 * time.Millisecond

// timed calls f at least minReps times and until probeBudget has passed
// (at most maxReps), recording one span, and returns the median call.
func (p *prober) timed(name string, minReps, maxReps int, f func() error) (time.Duration, error) {
	var ds []time.Duration
	t0 := time.Now()
	for len(ds) < minReps || (time.Since(t0) < probeBudget && len(ds) < maxReps) {
		s := time.Now()
		if err := f(); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		ds = append(ds, time.Since(s))
	}
	p.span(name, t0, len(ds))
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}

// contended calls f from p.b.conns goroutines for probeBudget and returns
// the mean call latency (goroutine time over calls).
func (p *prober) contended(name string, f func(g int) error) (time.Duration, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		calls int
		busy  time.Duration
		first error
	)
	t0 := time.Now()
	for g := 0; g < p.b.conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n, s := 0, time.Now()
			var err error
			for time.Since(t0) < probeBudget && err == nil {
				for i := 0; i < 16 && err == nil; i++ {
					err = f(g)
					n++
				}
			}
			mu.Lock()
			calls += n
			busy += time.Since(s)
			if err != nil && first == nil {
				first = err
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	p.span(name, t0, calls)
	if first != nil {
		return 0, fmt.Errorf("probe %s: %w", name, first)
	}
	return busy / time.Duration(calls), nil
}

func (p *prober) span(name string, t0 time.Time, count int) {
	id := p.b.spans.add(p.parent, "probe."+name, t0, time.Now(), "")
	p.b.spans.spans[id-1].Count = count
}

func (p *prober) set(name, unit string, v float64) { p.m[name] = metric{Value: v, Unit: unit} }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runProbes measures every layer probe; recoverDir is a copy of a data
// directory for store.recover_ms ("" to recover the probe store's own).
func (b *bench) runProbes(m map[string]metric, recoverDir string) error {
	t0 := time.Now()
	pid := b.spans.add(0, "phase.probes", t0, t0, "")
	p := &prober{b: b, parent: pid, m: m}
	defer func() { b.spans.end(pid, time.Now()) }()
	xs, err := p.dpsql()
	if err != nil {
		return err
	}
	if err := p.estimators(xs); err != nil {
		return err
	}
	if err := p.ledgers(); err != nil {
		return err
	}
	if err := p.store(recoverDir); err != nil {
		return err
	}
	return p.obs()
}

// dpsql times the table layer on a table loaded with the workload's
// rows, and returns its per-user means.
func (p *prober) dpsql() ([]float64, error) {
	rows := make([][]dpsql.Value, len(p.b.data.base))
	for i, r := range p.b.data.base {
		rows[i] = []dpsql.Value{dpsql.Str(r.uid), dpsql.Float(r.v), dpsql.Str(r.grp)}
	}
	cols := []dpsql.Column{{Name: "uid", Kind: dpsql.KindString}, {Name: "v", Kind: dpsql.KindFloat}, {Name: "grp", Kind: dpsql.KindString}}
	var (
		db  *dpsql.DB
		tab *dpsql.Table
	)
	load, err := p.timed("dpsql.append_rows", 3, 50, func() error {
		db = dpsql.NewDB()
		var err error
		if tab, err = db.CreateSharded("metrics", cols, "uid", p.b.w.shards); err != nil {
			return err
		}
		for i := 0; i < len(rows); i += setupBatchRows {
			if err := tab.AppendRows(rows[i:min(i+setupBatchRows, len(rows))]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.set("dpsql.append_rows_us_per_row", "us", us(load)/float64(len(rows)))
	if err := db.SetBudget(bottomless); err != nil {
		return nil, err
	}
	var xs []float64
	d, err := p.timed("dpsql.user_means", 5, 200, func() (err error) {
		xs, err = tab.UserMeans("v")
		return err
	})
	if err != nil {
		return nil, err
	}
	p.set("dpsql.user_means_ms", "ms", ms(d))
	p.set("dpsql.collapse_ns_per_row", "ns", float64(d)/float64(len(rows)))
	if d, err = p.timed("dpsql.num_users", 5, 200, func() error { tab.NumUsers(); return nil }); err != nil {
		return nil, err
	}
	p.set("dpsql.num_users_ms", "ms", ms(d))
	// The high-cardinality contrast: the same collapse over 50,000 users
	// of one row each, the shape where it is slowest.
	const wide = 50000
	wrng := xrand.New(p.b.cfg.seed ^ 0x5eed0004)
	wideTab, err := dpsql.NewDB().CreateSharded("wide", cols, "uid", p.b.w.shards)
	if err != nil {
		return nil, err
	}
	wideRows := make([][]dpsql.Value, wide)
	for i := range wideRows {
		wideRows[i] = []dpsql.Value{dpsql.Str("w" + strconv.Itoa(i)), dpsql.Float(250 + 30*wrng.Gaussian()), dpsql.Str(groupNames[i%len(groupNames)])}
	}
	if err := wideTab.AppendRows(wideRows); err != nil {
		return nil, err
	}
	if d, err = p.timed("dpsql.user_means_50k", 3, 50, func() error { _, err := wideTab.UserMeans("v"); return err }); err != nil {
		return nil, err
	}
	p.set("dpsql.collapse_ns_per_row_50k", "ns", float64(d)/wide)
	rng := xrand.New(p.b.cfg.seed)
	for _, q := range []struct{ name, sql string }{
		{"dpsql.exec_ms", "SELECT AVG(v) FROM metrics WHERE v < 265"},
		{"dpsql.grouped_ms", "SELECT AVG(v) FROM metrics GROUP BY grp"},
	} {
		d, err := p.timed(q.name, 5, 200, func() error {
			_, err := db.ExecTraced(rng, q.sql, releaseEps, dpsql.ExecOpts{})
			return err
		})
		if err != nil {
			return nil, err
		}
		p.set(q.name, "ms", ms(d))
	}
	return xs, nil
}

// estimators times the paper's estimators (updp) and the mechanisms under
// them (stats, dp) at the workload's n.
func (p *prober) estimators(xs []float64) error {
	seed := p.b.cfg.seed
	opt := func() updp.Option { seed++; return updp.WithSeed(seed) }
	calls := []struct {
		name string
		f    func() error
	}{
		{"updp.mean_ms", func() error { _, err := updp.Mean(xs, releaseEps, opt()); return err }},
		{"updp.median_ms", func() error { _, err := updp.Median(xs, releaseEps, opt()); return err }},
		{"updp.iqr_ms", func() error { _, err := updp.IQR(xs, releaseEps, opt()); return err }},
		{"updp.variance_ms", func() error { _, err := updp.Variance(xs, releaseEps, opt()); return err }},
		{"updp.quantile_ms", func() error { _, err := updp.Quantile(xs, 0.3, releaseEps, opt()); return err }},
	}
	for _, c := range calls {
		d, err := p.timed(c.name, 5, 500, c.f)
		if err != nil {
			return err
		}
		p.set(c.name, "ms", ms(d))
	}
	rng := xrand.New(seed)
	// The mean estimator subsamples m = ε·n points.
	m := int(math.Round(releaseEps * float64(len(xs))))
	d, err := p.timed("stats.subsample", 5, 2000, func() error { stats.Subsample(rng, xs, m); return nil })
	if err != nil {
		return err
	}
	p.set("stats.subsample_us", "us", us(d))
	ints := make([]int64, len(xs))
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i, x := range xs {
		ints[i] = int64(math.Round(x * 100))
		lo, hi = min(lo, ints[i]), max(hi, ints[i])
	}
	d, err = p.timed("dp.fdq", 5, 2000, func() error {
		_, err := dp.FiniteDomainQuantile(rng, ints, len(ints)/2, lo, hi, releaseEps, 0.1)
		return err
	})
	if err != nil {
		return err
	}
	p.set("dp.fdq_us", "us", us(d))
	const laplaceBatch = 1000
	d, err = p.timed("dp.laplace", 5, 2000, func() error {
		for i := 0; i < laplaceBatch; i++ {
			dp.Laplace(rng, 0, 1, releaseEps)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("dp.laplace_ns", "ns", float64(d)/laplaceBatch)
	return nil
}

// ledgers times Ledger.Spend on each composition backend from nproc
// goroutines.
func (p *prober) ledgers() error {
	pure, err := dp.NewBasicLedger(bottomless)
	if err != nil {
		return err
	}
	zcdp, err := dp.NewZCDPLedger(1e6, 1e-6)
	if err != nil {
		return err
	}
	rdp, err := dp.NewRDPLedger(1e6, 1e-6, nil)
	if err != nil {
		return err
	}
	for _, l := range []struct {
		name string
		led  dp.Ledger
	}{{"pure", pure}, {"zcdp", zcdp}, {"rdp", rdp}} {
		d, err := p.contended("dp.spend."+l.name, func(int) error { return l.led.Spend(dp.EpsCost(1e-6)) })
		if err != nil {
			return err
		}
		p.set("dp.spend_ns."+l.name, "ns", float64(d))
	}
	return nil
}

// store times the durability engine on a fresh directory with real
// fsync, then Store.Recover on recoverDir (or on the probe directory).
func (p *prober) store(recoverDir string) error {
	dir := filepath.Join(p.b.cfg.workdir, "probe-store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	st.SetGroupCommit(store.GroupCommitOptions{})
	tl, err := st.CreateTenant("probe", store.TenantConfig{Epsilon: bottomless, Accounting: "pure", Shards: 1})
	if err != nil {
		st.Close()
		return err
	}
	d, err := p.contended("store.commit_deduct", func(int) error {
		_, err := tl.CommitDeduct(dp.EpsCost(releaseEps))
		return err
	})
	if err == nil {
		p.set("store.commit_deduct_us", "us", us(d))
		err = tl.AppendTable(dpsql.TableState{
			Name:    "metrics",
			Columns: []dpsql.Column{{Name: "uid", Kind: dpsql.KindString}, {Name: "v", Kind: dpsql.KindFloat}, {Name: "grp", Kind: dpsql.KindString}},
			UserCol: "uid", Shards: 1,
		})
	}
	if err == nil {
		batch := p.b.data.batches[0]
		rows := make([][]dpsql.Value, len(batch))
		for i, r := range batch {
			rows[i] = []dpsql.Value{dpsql.Str(r.uid), dpsql.Float(r.v), dpsql.Str(r.grp)}
		}
		d, err = p.timed("store.append_rows", 5, 5000, func() error { return tl.AppendRows("metrics", 0, rows) })
		p.set("store.append_rows_us", "us", us(d))
	}
	if err == nil {
		var a *store.AuditLog
		if a, err = st.OpenAudit("probe"); err == nil {
			i := 0
			d, err = p.timed("store.audit_append", 5, 2000, func() error {
				i++
				return a.Append(&store.AuditRecord{ReleaseID: "probe-" + strconv.Itoa(i), Path: "estimate", Mechanism: "mean", Cost: dp.EpsCost(releaseEps), Unit: "eps"})
			})
			p.set("store.audit_append_us", "us", us(d))
			if cerr := a.Close(); err == nil {
				err = cerr
			}
		}
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if recoverDir == "" {
		recoverDir = dir
	}
	n := 0
	d, err = p.timed("store.recover", 3, 20, func() error {
		cp := filepath.Join(p.b.cfg.workdir, "probe-recover-"+strconv.Itoa(n))
		n++
		if err := copyDir(recoverDir, cp); err != nil {
			return err
		}
		defer os.RemoveAll(cp)
		s, err := store.Open(cp)
		if err != nil {
			return err
		}
		_, rerr := s.Recover()
		if cerr := s.Close(); rerr == nil {
			rerr = cerr
		}
		return rerr
	})
	if err != nil {
		return err
	}
	p.set("store.recover_ms", "ms", ms(d))
	return os.RemoveAll(dir)
}

// obs times the observability primitives every release passes through.
func (p *prober) obs() error {
	h := obs.NewRegistry().Histogram("perfbench_probe_seconds", "probe", obs.LatencyBuckets())
	d, err := p.contended("obs.observe", func(int) error { h.ObserveExemplar(0.001, "r-probe-1"); return nil })
	if err != nil {
		return err
	}
	p.set("obs.observe_ns", "ns", float64(d))
	rec := obs.NewRecorder(256)
	spans := []obs.Span{{Stage: "queue_wait", D: time.Microsecond}, {Stage: "scan", D: time.Millisecond}, {Stage: "noise", D: time.Millisecond}}
	d, err = p.contended("obs.record", func(int) error {
		rec.Record(&obs.RecordedTrace{ID: "r-probe", Tenant: tenantID, Path: "estimate", Status: 200, Outcome: "ok", Start: time.Now(), Total: 2 * time.Millisecond, Spans: spans}, false)
		return nil
	})
	if err != nil {
		return err
	}
	p.set("obs.record_ns", "ns", float64(d))
	return nil
}
