package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// rounds is how many fixed-rate windows (and, untraced, closed-loop
// bursts) the measured phases run as.
const rounds = 10

// runBench runs one workload and returns its result and report. An error
// means no result can be reported: the program failed outright, or the
// generator fell behind (errInvalid). A gate violation is a result with
// Correct false.
func runBench(cfg config) (*result, string, error) {
	b := newBench(cfg)
	res, err := b.run()
	if b.srv != nil && !b.w.durable {
		_ = b.closeKept()
	}
	for _, pat := range []string{"data-*", "recover-*", "probe-*"} {
		matches, _ := filepath.Glob(filepath.Join(cfg.workdir, pat))
		for _, m := range matches {
			_ = os.RemoveAll(m)
		}
	}
	return res, b.rep.String(), err
}

func (b *bench) run() (*result, error) {
	r := &b.rep
	if err := os.MkdirAll(b.cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	r.line("perfbench workload=%s seed=%d seconds=%g trace=%v connections=%d", b.w.name, b.cfg.seed, b.cfg.seconds, b.cfg.trace, b.conns)
	total := time.Duration(b.cfg.seconds * float64(time.Second))
	// Set-up and recovery each repeat for an eighth of the measured time
	// (5 s at 40 s): enough repetitions that their medians hold still.
	reps := repeats{min: 5, max: 101, dur: total / 8}
	if b.cfg.trace {
		reps = repeats{min: 1, max: 1}
	}

	var setups []float64
	for t0, i := time.Now(), 0; reps.more(i, t0); i++ {
		if err := b.closeKept(); err != nil {
			return nil, err
		}
		d, err := b.setup(i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	r.line("set-up       %d runs, median %.4f s", len(setups), median(setups))
	runStart, err := scrape(b.hc, b.base)
	if err != nil {
		return nil, err
	}
	warm := b.warm()
	r.line("warm-up      %d releases closed-loop, %d failed", warm.attempted, warm.failed)

	m := map[string]metric{}
	res := &result{Correct: true, Metrics: m}
	if b.cfg.trace {
		misfit, err := b.measureTraced(m, total*9/10)
		if err != nil {
			return nil, err
		}
		if misfit > 0 {
			res.Correct = false
			r.line("VIOLATION    %d releases: server stages do not fit the client span", misfit)
		}
	} else {
		if err := b.measure(m, total); err != nil {
			return nil, err
		}
		m["setup_s"] = metric{median(setups), "s"}
	}
	if b.w.durable {
		// The tail compacts, so recovery replays the same WAL tail on
		// every run; the heap is measured, and the server abandoned, once
		// no compaction is in flight.
		if err := b.tail(); err != nil {
			return nil, err
		}
		if err := b.quiesce(); err != nil {
			return nil, err
		}
	}
	if !b.cfg.trace {
		// The table states the gate built are dropped first: how many
		// are kept depends on the ingest timing, not on the server.
		clear(b.truth.states)
		m["heap_mb"] = metric{heapMB(), "MB"}
	}

	// The gate: answers (judged after each phase), then the ledger and
	// audit, then recovery.
	g := &b.gate
	res.Attempted, res.Failed = g.attempted, g.failed
	r.line("gate         %d operations, %d failed, %d answers failed the per-answer check, %d cache replays checked against the released answers", g.attempted, g.failed, g.misses, g.replays)
	for k := kind(0); k < numKinds; k++ {
		if g.answers[k] > 0 {
			r.line("gate         %-10v %6d answers, %5d beyond the (eps, beta) bound, worst %.3f of it", k, g.answers[k], g.exceed[k], g.worst[k])
		}
	}
	if g.firstFailure != "" {
		r.line("FAILED       %s", g.firstFailure)
	}
	for _, check := range []func() error{g.checkRates, b.checkLedger} {
		if err := check(); err != nil {
			res.Correct = false
			r.line("VIOLATION    %v", err)
		}
	}
	end, err := scrape(b.hc, b.base)
	if err != nil {
		return nil, err
	}
	compactions := end.delta(runStart, "updp_compaction_seconds_count")
	r.line("store        %.0f compactions during the run", compactions)
	if recs, err := b.recover(reps, g.chargedEps); err != nil {
		res.Correct = false
		r.line("VIOLATION    %v", err)
	} else {
		r.line("recovery     %d runs, median %.4f s %v", len(recs), median(recs), recs)
		if !b.cfg.trace {
			m["recovery_s"] = metric{median(recs), "s"}
		}
	}
	if b.cfg.trace {
		m["serve.compact_ms"] = metric{stageMs(end, runStart, "updp_release_stage_seconds", "compact"), "ms"}
		m["store.compactions"] = metric{compactions, "count"}
		recoverDir := ""
		if b.w.durable {
			recoverDir = b.dataDir
		}
		if err := b.runProbes(m, recoverDir); err != nil {
			return nil, err
		}
		path := filepath.Join(b.cfg.workdir, fmt.Sprintf("%s-seed%d-spans.jsonl", b.w.name, b.cfg.seed))
		if err := b.spans.finish(path); err != nil {
			return nil, err
		}
		r.line("spans        %d written to %s", len(b.spans.spans), path)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// measure runs the untraced measured phases: rounds rounds of one
// fixed-rate window and one closed-loop burst, so that both sample the
// whole run and a slow spell of the machine moves a few windows and
// bursts, not a whole phase. The windows take 75% of total, the bursts
// 25%. A window whose generator fell behind is left out; each metric is
// the median of the valid windows' (or of every burst's) values.
func (b *bench) measure(m map[string]metric, total time.Duration) error {
	w, r := b.w, &b.rep
	var rel50, ing50, rps []float64
	for i := 0; i < rounds; i++ {
		st := b.phase(fmt.Sprintf("fixed-%d", i), b.schedule(w.releaseRate, w.ingestRate, total*3/4/rounds), 0)
		p50, p95, i50 := quantile(st.releases, 0.5), quantile(st.releases, 0.95), quantile(st.ingests, 0.5)
		verdict := "invalid, left out"
		if valid(st) {
			verdict = "valid"
			rel50, ing50 = append(rel50, p50), append(ing50, i50)
		}
		r.line("window %d     releases %d at %.0f/s: p50 %.3f ms, p95 %.3f ms (%d beyond); ingest %d batches of %d rows at %.0f/s: p50 %.3f ms, p95 %.3f ms; generator lag p99 %.3f ms: %s",
			i, len(st.releases), w.releaseRate, p50, p95, beyond(st.releases, 0.95),
			len(st.ingests), w.batchRows, w.ingestRate, i50, quantile(st.ingests, 0.95), quantile(st.lags, 0.99), verdict)
		rps = append(rps, b.burst(fmt.Sprintf("burst-%d", i), total/4/rounds))
		r.line("burst %d      %.1f releases/s closed loop through %d connections", i, rps[i], b.conns)
	}
	if err := enoughValid(len(rel50), rounds); err != nil {
		return err
	}
	m["release_p50_ms"] = metric{median(rel50), "ms"}
	m["release_max_rps"] = metric{median(rps), "req/s"}
	m["ingest_p50_ms"] = metric{median(ing50), "ms"}
	return nil
}

// measureTraced runs the traced run's windows over total. Half of them
// record the benchmark's own spans while they run, in the order
// untraced, traced, traced, untraced, … so that neither kind always
// comes first while the server's state drifts. The ratio of their median
// p50s is bench.trace_overhead_frac: the cost of the benchmark's
// per-operation span recording. The server's flight recorder, sized to
// hold the run, is on in both kinds of window, and the join with
// /v1/traces runs between windows, so neither is part of the ratio. The
// serve, store and runtime deltas cover the traced windows. It returns
// how many releases had server stages that did not fit their client
// span.
func (b *bench) measureTraced(m map[string]metric, total time.Duration) (int, error) {
	w := b.w
	spans := b.spans
	var (
		plain50, traced50 []float64
		plain95           []float64
		releases, lags    []time.Duration
		elapsed           time.Duration
		unattributed      float64
		joined, misfit    int
		charged, rows     int
	)
	acc := promSnap{}
	for i := 0; i < rounds; i++ {
		ops := b.schedule(w.releaseRate, w.ingestRate, total/rounds)
		if i%4 == 0 || i%4 == 3 {
			b.spans = nil
			st := b.phase(fmt.Sprintf("untraced-%d", i), ops, 0)
			b.spans = spans
			if valid(st) {
				plain50 = append(plain50, quantile(st.releases, 0.5))
				plain95 = append(plain95, quantile(st.releases, 0.95))
			} else {
				b.rep.line("untraced-%d   generator lag p99 %.3f ms: invalid, left out", i, quantile(st.lags, 0.99))
			}
			continue
		}
		before, err := scrape(b.hc, b.base)
		if err != nil {
			return 0, err
		}
		var memBefore, memAfter runtime.MemStats
		runtime.ReadMemStats(&memBefore)
		t0 := time.Now()
		name := fmt.Sprintf("traced-%d", i)
		st := b.phase(name, ops, 0)
		d := time.Since(t0)
		runtime.ReadMemStats(&memAfter)
		after, err := scrape(b.hc, b.base)
		if err != nil {
			return 0, err
		}
		// Every traced window is joined, so every release's stages are
		// checked against its client span; only valid ones are measured.
		u, j, mf, err := b.joinTraces(name)
		if err != nil {
			return 0, err
		}
		misfit += mf
		if !valid(st) {
			b.rep.line("%-12s generator lag p99 %.3f ms: invalid, left out", name, quantile(st.lags, 0.99))
			continue
		}
		elapsed += d
		unattributed += u * float64(j)
		joined += j
		acc.add(after, before)
		acc["alloc_bytes"] += float64(memAfter.TotalAlloc - memBefore.TotalAlloc)
		acc["gc_cycles"] += float64(memAfter.NumGC - memBefore.NumGC)
		traced50 = append(traced50, quantile(st.releases, 0.5))
		releases, lags = append(releases, st.releases...), append(lags, st.lags...)
		for _, o := range ops {
			switch {
			case !o.ok():
			case o.req == nil:
				rows += len(b.data.batches[o.batch])
			case !o.cached:
				charged++
			}
		}
	}
	if err := enoughValid(min(len(plain50), len(traced50)), rounds/2); err != nil {
		return 0, err
	}
	none := promSnap{}
	stage := func(s string) float64 { return stageMs(acc, none, "updp_release_stage_seconds", s) }
	ingest := func(s string) float64 { return stageMs(acc, none, "updp_ingest_stage_seconds", s) }
	hits := acc["updp_cache_hits_total"]
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	set("bench.gen_lag_p99_ms", "ms", quantile(lags, 0.99))
	set("bench.trace_overhead_frac", "ratio", median(traced50)/median(plain50)-1)
	set("bench.traced_release_p50_ms", "ms", median(traced50))
	set("bench.release_p95_ms", "ms", median(plain95))
	set("serve.queue_wait_ms", "ms", stage("queue_wait"))
	set("serve.noise_ms", "ms", stage("noise"))
	set("serve.audit_ms", "ms", stage("audit"))
	set("serve.scan_ms", "ms", stage("scan"))
	set("serve.deduct_ms", "ms", stage("ledger_deduct")+stage("group_commit_wait")+stage("wal_fsync"))
	set("serve.unattributed_ms", "ms", ratio(unattributed, float64(joined)))
	set("serve.cache_hit_ratio", "ratio", ratio(hits, hits+acc["updp_cache_misses_total"]))
	set("serve.ingest_store_ms", "ms", ingest("store"))
	set("serve.ingest_wal_ms", "ms", ingest("wal"))
	set("store.fsyncs_per_release", "count", ratio(acc["updp_wal_fsync_seconds_count"], float64(charged)))
	set("store.entries_per_barrier", "count", ratio(acc["updp_wal_batch_size_sum"], acc["updp_wal_batch_size_count"]))
	set("store.wal_bytes_per_row", "B", ratio(acc["updp_wal_bytes_total"], float64(rows)))
	set("runtime.alloc_kb_per_release", "kB", ratio(acc["alloc_bytes"]/1024, float64(len(releases))))
	set("runtime.gc_cycles_per_s", "1/s", acc["gc_cycles"]/elapsed.Seconds())
	b.rep.line("traced       %d releases (window p50s %v ms), untraced window p50s %v ms; %d joined with server traces, %d misfit",
		len(releases), traced50, plain50, joined, misfit)
	return misfit, nil
}

// repeats says how often a repeated measurement runs: at least min
// times and for at least dur, at most max times.
type repeats struct {
	min, max int
	dur      time.Duration
}

func (p repeats) more(done int, since time.Time) bool {
	return done < p.min || (done < p.max && time.Since(since) < p.dur)
}

// valid reports whether a window's generator dispatched its ops on time:
// lag p99 within lagBound.
func valid(st phaseStats) bool { return quantile(st.lags, 0.99) <= ms(lagBound) }

// enoughValid fails a run in which fewer than half of a kind of window
// were valid: its medians would describe the generator's slow spells.
func enoughValid(valid, of int) error {
	if 2*valid < of {
		return fmt.Errorf("%w: only %d of %d windows had generator lag p99 within %v", errInvalid, valid, of, lagBound)
	}
	return nil
}

func opName(o *op) string {
	if o.req == nil {
		return fmt.Sprintf("ingest batch %d", o.batch)
	}
	return "release " + o.req.kind.String()
}
