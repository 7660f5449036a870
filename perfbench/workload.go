package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/serve"
	"repro/internal/xrand"
)

// A workload is one server configuration, one generated dataset and one
// open-loop traffic mix. Every input is drawn from the run's seed; the
// server sees only the generated rows and requests.
type workload struct {
	name    string
	durable bool // DataDir on local disk with real fsync
	shards  int

	users       int // users in the release table at set-up
	rowsPerUser int

	releaseRate float64 // nominal open-loop releases/s
	ingestRate  float64 // open-loop ingest batches/s beside the releases
	batchRows   int     // rows per ingest batch
	// streamTenant owns the "metrics" table the ingest stream appends to:
	// the release tenant itself, or a second tenant on the same server.
	streamTenant string
	mix          []weighted // release kinds of the distinct traffic
	repeatFrac   float64    // share of requests that repeat a dashboard release
	warmCharged  int        // charged releases sent before any measurement
	snapEvery    int        // serve.Options.SnapshotEvery (durable only)
}

type weighted struct {
	kind   kind
	weight int
}

// kind is one release type the generator can send.
type kind int

const (
	kMean kind = iota
	kMedian
	kIQR
	kVariance
	kQuantile
	kCount
	kAvgWhere
	kGroupAvg
	numKinds
)

var kindNames = [numKinds]string{"mean", "median", "iqr", "variance", "quantile", "count", "avg_where", "group_avg"}

func (k kind) String() string { return kindNames[k] }

// releaseEps is the per-release budget of every generated release (before
// the distinctness jitter).
const releaseEps = 1.0

// Release kinds are dealt in equal shares: each workload's mix is the
// list of kinds its description names, with no traffic record to weight
// them by. Each nominal release rate is a stated share of the workload's
// measured release_max_rps (about a fifth on estimate-mem, a quarter on
// ingest-durable), so the server is mostly idle between releases: p50 is
// the service path, not a queue. The ingest streams are under 1% of
// their measured closed-loop capacity. RATIONALE.md gives the
// measurements and the reasons for each rate.
var workloads = map[string]*workload{
	"estimate-mem": {
		name: "estimate-mem", shards: 1,
		users: 2000, rowsPerUser: 2,
		releaseRate: 100, ingestRate: 80, batchRows: 2, streamTenant: "feed",
		mix: []weighted{
			{kMean, 1}, {kMedian, 1}, {kIQR, 1}, {kVariance, 1}, {kQuantile, 1},
			{kAvgWhere, 1}, {kGroupAvg, 1},
		},
		repeatFrac: 0.2,
		// Past memAuditMax (4096) charged releases, as on any long-lived
		// server.
		warmCharged: 4200,
	},
	"ingest-durable": {
		name: "ingest-durable", durable: true, shards: 4,
		users: 10000, rowsPerUser: 2,
		releaseRate: 40, ingestRate: 50, batchRows: 2, streamTenant: tenantID,
		mix: []weighted{
			{kMean, 1}, {kMedian, 1}, {kCount, 1}, {kAvgWhere, 1},
		},
		warmCharged: 100,
		snapEvery:   1500,
	},
}

var workloadOrder = []string{"estimate-mem", "ingest-durable"}

// row is one generated record: user id, value, and the user's group.
type row struct {
	uid string
	v   float64
	grp string
}

var groupNames = []string{"a", "b", "c"}

// dataset is a workload's generated rows: the release table at set-up,
// plus the ingest stream in send order.
type dataset struct {
	base    []row
	batches [][]row
	// Pre-encoded request bodies, so set-up and recovery time the server,
	// not the generator's JSON encoder.
	baseBodies  [][]byte
	batchBodies [][]byte
}

const setupBatchRows = 2000

// genData draws the workload's rows from seed. Values are
// 250 + 30·N(0,1); each user keeps one group. Ingest batches send half
// their rows to existing users and half to new ones.
func genData(w *workload, seed uint64, batches int) *dataset {
	rng := xrand.New(seed ^ 0x5eed0001)
	d := &dataset{}
	userGrp := make([]string, w.users)
	for u := 0; u < w.users; u++ {
		userGrp[u] = groupNames[rng.Intn(len(groupNames))]
		uid := "u" + strconv.Itoa(u)
		for r := 0; r < w.rowsPerUser; r++ {
			d.base = append(d.base, row{uid: uid, v: 250 + 30*rng.Gaussian(), grp: userGrp[u]})
		}
	}
	next := 0
	for b := 0; b < batches; b++ {
		rows := make([]row, w.batchRows)
		for i := range rows {
			if i%2 == 0 {
				u := rng.Intn(w.users)
				rows[i] = row{uid: "u" + strconv.Itoa(u), grp: userGrp[u]}
			} else {
				rows[i] = row{uid: "n" + strconv.Itoa(next), grp: groupNames[rng.Intn(len(groupNames))]}
				next++
			}
			rows[i].v = 250 + 30*rng.Gaussian()
		}
		d.batches = append(d.batches, rows)
	}
	for i := 0; i < len(d.base); i += setupBatchRows {
		d.baseBodies = append(d.baseBodies, encodeRows(d.base[i:min(i+setupBatchRows, len(d.base))]))
	}
	for _, b := range d.batches {
		d.batchBodies = append(d.batchBodies, encodeRows(b))
	}
	return d
}

func encodeRows(rows []row) []byte {
	wire := make([][]any, len(rows))
	for i, r := range rows {
		wire[i] = []any{r.uid, r.v, r.grp}
	}
	b, err := json.Marshal(serve.InsertRowsRequest{Rows: wire})
	if err != nil {
		panic(err) // plain strings and finite floats always encode
	}
	return b
}

// request is one generated release.
type request struct {
	kind      kind
	path      string // "estimate" or "query"
	body      []byte
	eps       float64
	p         float64 // quantile rank
	bound     float64 // AVG ... WHERE v < bound
	dashboard bool
}

// reqGen draws releases for one run. seq makes every distinct release
// byte-distinct (a relative 1e-9 budget jitter), so only dashboard
// repeats can hit the response cache.
type reqGen struct {
	w      *workload
	rng    *xrand.RNG
	seq    int
	deck   []kind // the current shuffled block of the mix
	dashes []*request
}

func newReqGen(w *workload, seed uint64) *reqGen {
	g := &reqGen{w: w, rng: xrand.New(seed ^ 0x5eed0002)}
	// The dashboard: a few fixed releases that analysts reload.
	g.dashes = []*request{
		g.build(kMean, releaseEps, 0, 0),
		g.build(kMedian, releaseEps, 0, 0),
		g.build(kGroupAvg, releaseEps, 0, 0),
		g.build(kAvgWhere, releaseEps, 0, 265),
	}
	for _, d := range g.dashes {
		d.dashboard = true
	}
	return g
}

func (g *reqGen) next() *request {
	if g.w.repeatFrac > 0 && g.rng.Float64() < g.w.repeatFrac {
		return g.dashes[g.rng.Intn(len(g.dashes))]
	}
	// The mix is dealt in shuffled blocks holding each kind exactly its
	// weight, so every run of a few blocks has the mix's proportions.
	if len(g.deck) == 0 {
		for _, w := range g.w.mix {
			for i := 0; i < w.weight; i++ {
				g.deck = append(g.deck, w.kind)
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	k := g.deck[len(g.deck)-1]
	g.deck = g.deck[:len(g.deck)-1]
	g.seq++
	eps := releaseEps * (1 + float64(g.seq)*1e-9)
	p := 0.05 + 0.9*g.rng.Float64()
	bound := 250 + 30*(-0.5+2.5*g.rng.Float64())
	return g.build(k, eps, p, bound)
}

func (g *reqGen) build(k kind, eps, p, bound float64) *request {
	r := &request{kind: k, eps: eps, p: p, bound: bound}
	var body any
	switch k {
	case kCount:
		r.path, body = "estimate", serve.EstimateRequest{Table: "metrics", Stat: "count", Epsilon: eps}
	case kAvgWhere:
		// FormatFloat(-1) round-trips, so the server filters on exactly
		// the bound the gate recomputes with.
		r.path = "query"
		body = serve.QueryRequest{SQL: "SELECT AVG(v) FROM metrics WHERE v < " + strconv.FormatFloat(bound, 'g', -1, 64), Epsilon: eps}
	case kGroupAvg:
		r.path, body = "query", serve.QueryRequest{SQL: "SELECT AVG(v) FROM metrics GROUP BY grp", Epsilon: eps}
	default:
		er := serve.EstimateRequest{Table: "metrics", Column: "v", Stat: k.String(), Epsilon: eps}
		if k == kQuantile {
			er.P = p
		}
		r.path, body = "estimate", er
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("encoding %v request: %v", k, err))
	}
	r.body = b
	return r
}
