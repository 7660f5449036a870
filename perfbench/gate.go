package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/serve"
)

// The correctness gate. Every answered release is compared with the exact
// value the benchmark computes from its own generated rows, on two levels:
//
//   - Per answer: the answer is finite, a grouped answer names exactly the
//     groups that exist, and a count — the Laplace mechanism, whose error
//     tail is exact — lies within the tail at β = 1e-9. A miss counts as
//     a failed operation.
//   - A cache replay releases nothing new: it must repeat, value for
//     value, an answer the server released for the same request. A replay
//     that does not counts as a failed operation. Replays are not judged
//     again below, so one released value is counted once.
//   - Per statistic: the paper's estimators are (ε, β)-accurate, so any
//     one released answer may miss with probability β (0.1, the β the
//     server runs them with). Their error bound has the shape
//     scale·(a·√(L/n) + b·L·ln(n)/(ε·n)), L = ln(2/β): a sampling term and
//     a privacy term. For each statistic, at most a β share of its
//     released answers, plus a binomial slack at about 1e-9, may exceed
//     it, so one broken estimator fails the run however small its share
//     of the traffic. Quantiles are scored in rank, means in the data's
//     standard deviation, spreads relative to themselves, counts against
//     the Laplace tail at β. The estimators' constants are not published
//     per statistic, so a and b are set from calibration runs; the report
//     prints every statistic's exceedance count.

const (
	mechBeta = 0.1  // the β serve's estimators use by default
	hardBeta = 1e-9 // false-alarm rate of one per-answer count check
)

var mechL = math.Log(2 / mechBeta)

var tolCoef = map[kind][2]float64{
	kMean:     {2, 8},
	kAvgWhere: {2, 8},
	kGroupAvg: {2, 8},
	kMedian:   {1, 16},
	kQuantile: {1, 16},
	kVariance: {4, 16},
	kIQR:      {4, 16},
}

func bound(k kind, n int, eps float64) float64 {
	c := tolCoef[k]
	fn := float64(n)
	return c[0]*math.Sqrt(mechL/fn) + c[1]*mechL*math.Log(fn)/(eps*fn)
}

// laplaceTail is the Laplace(1/ε) magnitude exceeded with probability
// hardBeta.
func laplaceTail(eps float64) float64 { return math.Log(1/hardBeta) / eps }

// state is the exact content of the release table after the base rows
// and the first k ingest batches. Its summaries are built on first use:
// most releases need a mean, few a sorted order or the groups.
type state struct {
	rows  int // the rows are truths.rowUser[:rows], truths.rowV[:rows]
	means []float64
	grps  []string // each user's group, parallel to means
	all   *stat
	grp   map[string]*stat
}

// stats returns the summary of all users' means, or of one group's.
func (s *state) stats(group string) (*stat, bool) {
	if group == "" {
		if s.all == nil {
			s.all = newStat(s.means)
		}
		return s.all, true
	}
	st, ok := s.groups()[group]
	return st, ok
}

func (s *state) groups() map[string]*stat {
	if s.grp == nil {
		byGrp := map[string][]float64{}
		for i, g := range s.grps {
			byGrp[g] = append(byGrp[g], s.means[i])
		}
		s.grp = map[string]*stat{}
		for g, xs := range byGrp {
			s.grp[g] = newStat(xs)
		}
	}
	return s.grp
}

// stat summarizes a set of per-user means.
type stat struct {
	xs       []float64
	sorted   bool
	mean, sd float64
}

func newStat(xs []float64) *stat {
	s := &stat{xs: xs}
	for _, x := range xs {
		s.mean += x
	}
	s.mean /= float64(len(xs))
	for _, x := range xs {
		s.sd += (x - s.mean) * (x - s.mean)
	}
	s.sd = math.Sqrt(s.sd / float64(len(xs)))
	return s
}

// order returns the values sorted, sorting them in place once.
func (s *stat) order() []float64 {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return s.xs
}

// sortedQuantile is the nearest-rank p-quantile of sorted xs.
func sortedQuantile(xs []float64, p float64) float64 {
	ix := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(ix, 0), len(xs)-1)]
}

// truths holds the release table's rows in arrival order, each tagged
// with its user's index (users numbered in first-seen order, each in its
// first-seen group: the contribution bound of 1 grouped releases apply),
// and builds table states from them on demand, keyed by ingest prefix.
type truths struct {
	b       *bench
	userIx  map[string]int32
	userGrp []string
	rowUser []int32
	rowV    []float64
	batches int // batches appended to the rows so far
	states  map[int]*state
}

func newTruths(b *bench) *truths {
	t := &truths{b: b, userIx: map[string]int32{}, states: map[int]*state{}}
	t.append(b.data.base)
	return t
}

func (t *truths) append(rows []row) {
	for _, r := range rows {
		ix, ok := t.userIx[r.uid]
		if !ok {
			ix = int32(len(t.userGrp))
			t.userIx[r.uid] = ix
			t.userGrp = append(t.userGrp, r.grp)
		}
		t.rowUser = append(t.rowUser, ix)
		t.rowV = append(t.rowV, r.v)
	}
}

// userMeans collapses the first n rows that keep selects to per-user
// means.
func (t *truths) userMeans(n int, keep func(v float64) bool) (means []float64, grps []string) {
	sum := make([]float64, len(t.userGrp))
	cnt := make([]int32, len(t.userGrp))
	for i, u := range t.rowUser[:n] {
		if keep == nil || keep(t.rowV[i]) {
			sum[u] += t.rowV[i]
			cnt[u]++
		}
	}
	for u, c := range cnt {
		if c > 0 {
			means = append(means, sum[u]/float64(c))
			grps = append(grps, t.userGrp[u])
		}
	}
	return means, grps
}

func (t *truths) at(k int) *state {
	if t.b.w.streamTenant != tenantID {
		k = 0
	}
	if s, ok := t.states[k]; ok {
		return s
	}
	for ; t.batches < k; t.batches++ {
		t.append(t.b.data.batches[t.batches])
	}
	rows := len(t.b.data.base)
	for _, batch := range t.b.data.batches[:k] {
		rows += len(batch)
	}
	means, grps := t.userMeans(rows, nil)
	s := &state{rows: rows, means: means, grps: grps}
	for old := range t.states {
		if old < k-8 {
			delete(t.states, old)
		}
	}
	t.states[k] = s
	return s
}

// score is one answer judged on one table state: its signed error over
// the mechanism's (ε, β) bound and, for the Laplace counts, over the
// per-answer tail bound (|tail| > 1 fails).
type score struct {
	ratio, tail float64
}

// judge scores answer v (group key for grouped releases) of r on s.
func (t *truths) judge(r *request, s *state, key string, v float64) (score, error) {
	st, ok := s.stats(key)
	if !ok {
		return score{}, fmt.Errorf("unknown group %q", key)
	}
	if r.kind == kAvgWhere {
		means, _ := t.userMeans(s.rows, func(x float64) bool { return x < r.bound })
		if len(means) < 4 {
			return score{}, fmt.Errorf("AVG bound %g selects %d users", r.bound, len(means))
		}
		st = newStat(means)
	}
	n := len(st.xs)
	switch r.kind {
	case kCount:
		d := v - float64(n)
		return score{d / (math.Log(1/mechBeta) / r.eps), d / laplaceTail(r.eps)}, nil
	case kMean, kAvgWhere, kGroupAvg:
		return score{ratio: (v - st.mean) / (st.sd * bound(r.kind, n, r.eps))}, nil
	case kMedian, kQuantile:
		p := r.p
		if r.kind == kMedian {
			p = 0.5
		}
		// Rank of v: the share of values below it, against the target.
		rank := float64(sort.SearchFloat64s(st.order(), v)) / float64(n)
		return score{ratio: (rank - p) / bound(r.kind, n, r.eps)}, nil
	case kVariance:
		vr := st.sd * st.sd
		return score{ratio: (v - vr) / (vr * bound(r.kind, n, r.eps))}, nil
	case kIQR:
		xs := st.order()
		iqr := sortedQuantile(xs, 0.75) - sortedQuantile(xs, 0.25)
		return score{ratio: (v - iqr) / (iqr * bound(r.kind, n, r.eps))}, nil
	}
	return score{}, fmt.Errorf("no exact value for %v", r.kind)
}

// straddle combines the signed errors of one answer on the two table
// states bracketing it: zero when the exact values lie on both sides of
// the answer, otherwise the smaller magnitude.
func straddle(a, b float64) float64 {
	if (a < 0) != (b < 0) {
		return 0
	}
	return math.Min(math.Abs(a), math.Abs(b))
}

// answers decodes a release response into its value(s), whether it was
// a budget-free cache replay, and the response re-encoded without the
// replay flag, which a replay must match.
func answers(r *request, body []byte) (map[string]float64, bool, string, error) {
	out := map[string]float64{}
	switch r.path {
	case "estimate":
		var resp serve.EstimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, false, "", err
		}
		out[""] = resp.Value
		cached := resp.Cached
		resp.Cached = false
		return out, cached, string(mustJSON(resp)), nil
	default:
		var resp serve.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, false, "", err
		}
		for _, row := range resp.Rows {
			if len(row.Values) != 1 {
				return nil, false, "", fmt.Errorf("query row has %d values", len(row.Values))
			}
			out[row.Group] = row.Values[0]
		}
		cached := resp.Cached
		resp.Cached = false
		return out, cached, string(mustJSON(resp)), nil
	}
}

// gateStats is the gate's verdict on a server's operations so far.
type gateStats struct {
	attempted, failed int // every operation sent; failed ones, wrong answers included
	misses            int // answers that failed the per-answer check
	charged           int
	chargedEps        float64
	replays           int
	answers           [numKinds]int     // released (uncached) answers
	exceed            [numKinds]int     // released answers beyond the mechanism's bound
	worst             [numKinds]float64 // largest error over bound
	firstFailure      string
	// released maps a dashboard request's body to every response the
	// server released for it, re-encoded without the replay flag. Other
	// requests are byte-distinct, so a replay of one matches nothing.
	released map[string][]string
}

func (g *gateStats) fail(msg string) {
	g.failed++
	if g.firstFailure == "" {
		g.firstFailure = msg
	}
}

// account judges a finished phase's operations on the kept server and
// then drops their response bodies. A release is judged against the
// table states it may have seen: between the ingest prefix acknowledged
// before it was sent and the prefix sent before it completed. Cache
// replays are checked after every released answer of the phase is
// known, since a replay can complete before the release it repeats is
// recorded in due order.
func (b *bench) account(ops []*op) {
	g := &b.gate
	if g.released == nil {
		g.released = map[string][]string{}
	}
	var replays []*op
	for _, o := range ops {
		if o.skipped {
			continue
		}
		g.attempted++
		if !o.ok() {
			g.fail(fmt.Sprintf("%s: HTTP %d %v %s", opName(o), o.status, o.err, o.resp))
		} else if o.req != nil {
			if b.cfg.hooks != nil && b.cfg.hooks.answer != nil {
				b.cfg.hooks.answer(o)
			}
			if err := b.checkOne(o, g); err != nil {
				g.misses++
				g.fail(fmt.Sprintf("%v release %s: %v", o.req.kind, o.id, err))
			}
			if o.cached {
				replays = append(replays, o)
				continue
			}
		}
		o.resp = nil
	}
	for _, o := range replays {
		g.replays++
		_, _, canon, _ := answers(o.req, o.resp)
		if !slices.Contains(g.released[string(o.req.body)], canon) {
			g.misses++
			g.fail(fmt.Sprintf("%v cache replay %s repeats no released answer: %s", o.req.kind, o.id, o.resp))
		}
		o.resp = nil
	}
}

// checkOne judges one answered release. A cache replay is only decoded
// here; account checks it against the released answers.
func (b *bench) checkOne(o *op, g *gateStats) error {
	got, cached, canon, err := answers(o.req, o.resp)
	if err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	o.cached = cached
	if cached {
		return nil
	}
	g.charged++
	g.chargedEps += o.req.eps
	if o.req.dashboard {
		g.released[string(o.req.body)] = append(g.released[string(o.req.body)], canon)
	}
	first, last := b.truth.at(o.lo), b.truth.at(max(o.hi, o.lo))
	if o.req.kind == kGroupAvg && len(got) != len(last.groups()) {
		return fmt.Errorf("%d groups answered, %d exist", len(got), len(last.groups()))
	}
	k := o.req.kind
	for key, v := range got {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite answer %v", v)
		}
		a, err := b.truth.judge(o.req, first, key, v)
		if err != nil {
			return err
		}
		c := a
		if last != first {
			if c, err = b.truth.judge(o.req, last, key, v); err != nil {
				return err
			}
		}
		best := score{straddle(a.ratio, c.ratio), straddle(a.tail, c.tail)}
		g.answers[k]++
		g.worst[k] = math.Max(g.worst[k], best.ratio)
		if best.ratio > 1 {
			g.exceed[k]++
		}
		if best.tail > 1 {
			return fmt.Errorf("count %g for group %q is %.3g× beyond the Laplace tail at beta=%g", v, key, best.tail, hardBeta)
		}
	}
	return nil
}

// checkRates fails a run in which some statistic's released answers
// exceed the mechanism's (ε, β) bound more often than β allows.
func (g *gateStats) checkRates() error {
	var errs []error
	for k := kind(0); k < numKinds; k++ {
		n := float64(g.answers[k])
		if n == 0 {
			continue
		}
		if allowed := mechBeta*n + 6*math.Sqrt(mechBeta*(1-mechBeta)*n) + 1; float64(g.exceed[k]) > allowed {
			errs = append(errs, fmt.Errorf("%v: %d of %d released answers beyond the mechanism's error bound (at most %.0f allowed at beta=%g)", k, g.exceed[k], g.answers[k], allowed, mechBeta))
		}
	}
	return errors.Join(errs...)
}

// checkLedger verifies, on the kept server after its last release, that
// the tenant's spend equals the sum of the charged costs and that the
// audit log holds exactly one record per charged release.
func (b *bench) checkLedger() error {
	g := &b.gate
	if b.cfg.hooks != nil && b.cfg.hooks.afterTraffic != nil {
		b.cfg.hooks.afterTraffic(b.srv)
	}
	st, err := b.tenantStatus(b.base)
	if err != nil {
		return err
	}
	if math.Abs(st.Spent-g.chargedEps) > 1e-9*g.chargedEps {
		return fmt.Errorf("ledger: tenant spent %.12g, charged releases cost %.12g", st.Spent, g.chargedEps)
	}
	if st.AuditRecords != uint64(g.charged) {
		return fmt.Errorf("audit: %d records for %d charged releases", st.AuditRecords, g.charged)
	}
	if st.Refusals != 0 {
		return fmt.Errorf("ledger: %d refusals on a bottomless budget", st.Refusals)
	}
	return nil
}

// checkRecovered verifies a recovered server against what the abandoned
// one acknowledged: spend never refills (durable servers), and no row
// appears that was never acknowledged.
func (b *bench) checkRecovered(srv *serve.Server, ackedSpend float64) error {
	t, ok := srv.Tenant(tenantID)
	if !ok {
		return fmt.Errorf("recovery: tenant %q missing", tenantID)
	}
	if b.w.durable {
		if spent := t.Ledger().Spent(); spent < ackedSpend*(1-1e-12) {
			return fmt.Errorf("recovery: spend refilled: recovered %.12g < acknowledged %.12g", spent, ackedSpend)
		}
	}
	for _, id := range []string{tenantID, b.w.streamTenant} {
		t, ok := srv.Tenant(id)
		if !ok {
			return fmt.Errorf("recovery: tenant %q missing", id)
		}
		tab, err := t.DB().TableByName("metrics")
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		if got, acked := tab.NumRows(), b.ackedRows(id); got > acked {
			return fmt.Errorf("recovery: tenant %s has %d rows, only %d acknowledged", id, got, acked)
		}
	}
	return nil
}
