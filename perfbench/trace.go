package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// span is one timed interval of the traced run. Times are milliseconds
// since the span log started; Parent 0 marks a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_ms"`
	End     float64 `json:"end_ms"`
	Self    float64 `json:"self_ms"`
	Release string  `json:"release_id,omitempty"`
	Count   int     `json:"count,omitempty"`
}

// spanLog keeps the traced run's spans in memory until the run ends.
// Connections record their ops' spans as each op completes, so the
// recording happens while the measured window runs.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) at(t time.Time) float64 { return ms(t.Sub(l.t0)) }

func (l *spanLog) add(parent int, name string, start, end time.Time, release string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: l.at(start), End: l.at(end), Release: release}
	l.spans = append(l.spans, s)
	return s.ID
}

// end closes span id at t.
func (l *spanLog) end(id int, t time.Time) {
	l.mu.Lock()
	l.spans[id-1].End = l.at(t)
	l.mu.Unlock()
}

// op records one sent op under phase span pid, from the moment a
// connection picked it up to its completion; start is the phase start.
func (l *spanLog) op(pid int, start time.Time, o *op) {
	kind := "ingest"
	if o.req != nil {
		kind = "release." + o.req.kind.String()
	}
	l.add(pid, kind, start.Add(o.sent), start.Add(o.done), o.id)
}

// finish computes every span's self time — its duration minus the part
// of it its children cover — and writes the log as JSON lines.
func (l *spanLog) finish(path string) error {
	kids := map[int][][2]float64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range l.spans {
		s := &l.spans[i]
		s.Self = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// joinTraces attaches the server's span tree (GET /v1/traces/{id}) to
// every release span of the named phase, plus an explicit
// "unattributed" child: the client span minus the union of the server's
// root stages (HTTP, decode, encode and scheduling). It returns the mean
// unattributed time in ms, the number of releases joined, and how many
// had server stages that did not fit inside their client span.
func (b *bench) joinTraces(phaseName string) (float64, int, int, error) {
	l := b.spans
	var pid int
	for _, s := range l.spans {
		if s.Name == "phase."+phaseName {
			pid = s.ID
		}
	}
	var sum float64
	joined, misfit := 0, 0
	n := len(l.spans)
	for i := 0; i < n; i++ {
		cs := l.spans[i]
		if cs.Parent != pid || cs.Release == "" {
			continue
		}
		var tr serve.TraceDetail
		if err := getJSON(b.hc, b.base+"/v1/traces/"+cs.Release, &tr); err != nil {
			return 0, 0, 0, err
		}
		origin := l.at(tr.Start)
		var roots [][2]float64
		for _, sp := range tr.Spans {
			roots = append(roots, [2]float64{origin + sp.StartMs, origin + sp.StartMs + sp.DurationMs})
			b.addServerSpan(cs.ID, origin, sp)
		}
		client := cs.End - cs.Start
		server := covered(roots, origin, origin+1e12)
		un := client - server
		// Wall-clock stamps carry a little rounding; beyond 0.05 ms the
		// server's stages did not fit the client span.
		if un < -0.05 || origin < cs.Start-0.05 {
			misfit++
		}
		l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: cs.ID, Name: "unattributed", Start: cs.End - max(un, 0), End: cs.End, Release: cs.Release})
		sum += un
		joined++
	}
	if joined == 0 {
		return 0, 0, 0, nil
	}
	return sum / float64(joined), joined, misfit, nil
}

func (b *bench) addServerSpan(parent int, origin float64, sp *serve.TraceSpan) {
	l := b.spans
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: "serve." + sp.Stage, Start: origin + sp.StartMs, End: origin + sp.StartMs + sp.DurationMs})
	for _, c := range sp.Children {
		b.addServerSpan(id, origin, c)
	}
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// promSnap is one /metrics scrape: series ("name{labels}") -> value.
type promSnap map[string]float64

func scrape(hc *http.Client, base string) (promSnap, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	snap := promSnap{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// An exemplar suffix (" # {...} v") is not part of the sample.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			snap[line[:sp]] = v
		}
	}
	return snap, nil
}

func (a promSnap) delta(b promSnap, key string) float64 { return a[key] - b[key] }

// add accumulates the change from before to after into a.
func (a promSnap) add(after, before promSnap) {
	for k, v := range after {
		a[k] += v - before[k]
	}
}

// stageMs is a histogram's mean observation over an interval, in ms.
func stageMs(after, before promSnap, family, stage string) float64 {
	sel := ""
	if stage != "" {
		sel = `{stage="` + stage + `"}`
	}
	n := after.delta(before, family+"_count"+sel)
	if n <= 0 {
		return 0
	}
	return after.delta(before, family+"_sum"+sel) / n * 1000
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
