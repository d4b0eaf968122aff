// Package introspect is the live introspection server behind the CLIs'
// -http flag: while a report or experiment runs, it serves run progress
// (experiments, submitted/cached runs, scheduler load), on-demand
// metrics snapshots as the same deterministic JSON the -metrics flag
// writes, a transaction state-machine coverage heatmap, and the standard
// net/http/pprof profiling endpoints. It is read-only and side-effect
// free: handlers snapshot state under locks the simulation paths already
// take per run (never per access), so serving a request perturbs nothing
// the determinism gates check.
//
// Endpoints:
//
//	/               index with a live progress summary
//	/progress       JSON: phase, experiments done/total, capture counters,
//	                scheduler workers/active
//	/metrics        JSON: every run record the window has collected
//	                (system.MetricsReport shape)
//	/txn            transaction-edge coverage heatmap (HTML); ?format=json
//	                for the aggregated edge list; unvisited legal edges
//	                are listed under the tables
//	/debug/pprof/   CPU/heap/block/mutex profiles and goroutine dumps
package introspect

import (
	"context"
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"tako/internal/hier"
	"tako/internal/sched"
	"tako/internal/system"
)

// Server is one live introspection endpoint. All methods are safe for
// concurrent use; the zero value is not usable — construct with Start.
type Server struct {
	srv *http.Server
	ln  net.Listener

	mu       sync.Mutex
	phase    string
	expTotal int
	expDone  int
	current  string
	start    time.Time
}

// progressDoc is the /progress JSON document.
type progressDoc struct {
	Phase       string          `json:"phase"`
	UptimeMS    int64           `json:"uptime_ms"`
	Experiments experimentsDoc  `json:"experiments"`
	Capture     system.Progress `json:"capture"`
	FastForward *ffDoc          `json:"fastforward,omitempty"`
	Sched       schedDoc        `json:"sched"`
}

// ffDoc reports the analytical fast-forward phase: how many accesses
// the window's hierarchies have fast-forwarded, the total budget, the
// throughput, and the ETA the throughput implies. Omitted until a run
// enables fast-forward.
type ffDoc struct {
	Active   int     `json:"active"`
	Accesses uint64  `json:"accesses"`
	Budget   uint64  `json:"budget"`
	PerSec   float64 `json:"per_sec"`
	EtaMS    int64   `json:"eta_ms"`
}

type experimentsDoc struct {
	Total   int    `json:"total"`
	Done    int    `json:"done"`
	Current string `json:"current,omitempty"`
}

type schedDoc struct {
	Workers int `json:"workers"`
	Active  int `json:"active"`
}

// Start listens on addr (":6060", "127.0.0.1:0", ...) and serves the
// introspection endpoints until Close. The listener is bound before
// Start returns, so Addr() is immediately valid and a poller never races
// the bind.
func Start(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, start: time.Now(), phase: "starting"}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/txn", s.handleTxn)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (resolves ":0" to the real port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down gracefully, waiting for in-flight
// requests (bounded) before closing the listener.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// SetPhase labels what the process is doing ("running", "writing
// report", ...) in /progress.
func (s *Server) SetPhase(phase string) {
	s.mu.Lock()
	s.phase = phase
	s.mu.Unlock()
}

// SetExperiments declares how many experiments the run will execute.
func (s *Server) SetExperiments(total int) {
	s.mu.Lock()
	s.expTotal = total
	s.mu.Unlock()
}

// StartExperiment marks id as the experiment currently running.
func (s *Server) StartExperiment(id string) {
	s.mu.Lock()
	s.current = id
	s.phase = "running"
	s.mu.Unlock()
}

// FinishExperiment marks one experiment complete.
func (s *Server) FinishExperiment(id string) {
	s.mu.Lock()
	if s.current == id {
		s.current = ""
	}
	s.expDone++
	s.mu.Unlock()
}

func (s *Server) progress() progressDoc {
	s.mu.Lock()
	doc := progressDoc{
		Phase:    s.phase,
		UptimeMS: time.Since(s.start).Milliseconds(),
		Experiments: experimentsDoc{
			Total: s.expTotal, Done: s.expDone, Current: s.current,
		},
	}
	s.mu.Unlock()
	doc.Capture = system.CaptureProgress()
	if ff := doc.Capture.FF; ff.Budget > 0 {
		d := &ffDoc{Active: ff.Active, Accesses: ff.Accesses,
			Budget: ff.Budget, PerSec: ff.PerSec}
		if ff.PerSec > 0 && ff.Budget > ff.Accesses {
			d.EtaMS = int64(float64(ff.Budget-ff.Accesses) / ff.PerSec * 1000)
		}
		doc.FastForward = d
	}
	doc.Sched = schedDoc{Workers: system.Workers(), Active: sched.Active()}
	return doc
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.progress())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	system.WriteMetricsReport(w, system.CaptureRuns()) //nolint:errcheck // client went away
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	p := s.progress()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!doctype html><title>täkō introspection</title>
<style>body{font:14px monospace;margin:2em}a{display:block;margin:.2em 0}</style>
<h1>täkō simulation — live introspection</h1>
<p>phase: <b>%s</b> · experiments %d/%d %s· runs submitted %d (cached %d) · sched %d/%d busy%s</p>
<a href="/progress">/progress — run progress (JSON)</a>
<a href="/metrics">/metrics — all run metrics snapshots (JSON)</a>
<a href="/txn">/txn — transaction state-machine coverage heatmap</a>
<a href="/debug/pprof/">/debug/pprof/ — CPU, heap, block, mutex profiles</a>
`,
		html.EscapeString(p.Phase), p.Experiments.Done, p.Experiments.Total,
		currentTag(p.Experiments.Current), p.Capture.Submitted, p.Capture.Cached,
		p.Sched.Active, p.Sched.Workers, ffTag(p.FastForward))
}

// ffTag renders the fast-forward phase for the index line: accesses
// fast-forwarded against the budget, with the throughput-implied ETA.
func ffTag(ff *ffDoc) string {
	if ff == nil {
		return ""
	}
	tag := fmt.Sprintf(" · fast-forward %d/%d accesses", ff.Accesses, ff.Budget)
	if ff.EtaMS > 0 {
		tag += fmt.Sprintf(" (eta %s)", (time.Duration(ff.EtaMS) * time.Millisecond).Round(time.Second))
	}
	return tag
}

func currentTag(id string) string {
	if id == "" {
		return ""
	}
	return "(" + html.EscapeString(id) + ") "
}

// handleTxn renders the aggregated transaction-edge coverage: per kind a
// from×to matrix shaded by hit count, plus the unvisited legal edges.
// ?format=json returns the aggregated edge list instead.
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	edges := system.AggregateTxnEdges(system.CaptureRuns())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, struct {
			Edges     []hier.TxnTransition `json:"edges"`
			Unvisited []hier.TxnTransition `json:"unvisited"`
		}{edges, hier.UnvisitedEdges(edges)})
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!doctype html><title>txn coverage</title>
<style>body{font:13px monospace;margin:2em}table{border-collapse:collapse;margin:1em 0}
td,th{border:1px solid #ccc;padding:2px 6px;text-align:right}th{background:#eee}
td.z{color:#bbb}</style><h1>transaction state-machine coverage</h1>`)
	states := hier.TxnStateOrder()
	for _, kind := range hier.TxnKindOrder() {
		// Collect this kind's edges and the states it actually uses.
		var kindEdges []hier.TxnTransition
		usesState := map[string]bool{}
		var maxCount uint64
		for _, e := range edges {
			if e.Kind != kind {
				continue
			}
			kindEdges = append(kindEdges, e)
			usesState[e.From], usesState[e.To] = true, true
			if e.Count > maxCount {
				maxCount = e.Count
			}
		}
		for _, e := range hier.UnvisitedEdges(edges) {
			if e.Kind == kind {
				usesState[e.From], usesState[e.To] = true, true
			}
		}
		var cols []string
		for _, st := range states {
			if usesState[st] {
				cols = append(cols, st)
			}
		}
		if len(cols) == 0 {
			continue
		}
		count := map[[2]string]uint64{}
		for _, e := range kindEdges {
			count[[2]string{e.From, e.To}] = e.Count
		}
		fmt.Fprintf(w, "<h2>%s</h2><table><tr><th>from \\ to</th>", html.EscapeString(kind))
		for _, to := range cols {
			fmt.Fprintf(w, "<th>%s</th>", html.EscapeString(to))
		}
		fmt.Fprint(w, "</tr>")
		for _, from := range cols {
			fmt.Fprintf(w, "<tr><th>%s</th>", html.EscapeString(from))
			for _, to := range cols {
				c := count[[2]string{from, to}]
				if c == 0 {
					fmt.Fprint(w, `<td class=z>·</td>`)
					continue
				}
				fmt.Fprintf(w, `<td style="background:%s">%d</td>`, heat(c, maxCount), c)
			}
			fmt.Fprint(w, "</tr>")
		}
		fmt.Fprint(w, "</table>")
	}
	if unvisited := hier.UnvisitedEdges(edges); len(unvisited) > 0 {
		fmt.Fprintf(w, "<h2>unvisited legal edges (%d)</h2><ul>", len(unvisited))
		for _, e := range unvisited {
			fmt.Fprintf(w, "<li>%s: %s → %s</li>",
				html.EscapeString(e.Kind), html.EscapeString(e.From), html.EscapeString(e.To))
		}
		fmt.Fprint(w, "</ul>")
	}
}

// heat maps a count to a background shade (light → saturated) relative
// to the kind's hottest edge.
func heat(c, max uint64) string {
	if max == 0 {
		return "#fff"
	}
	// Log-ish ramp: edges span orders of magnitude.
	frac := float64(bitsLen(c)) / float64(bitsLen(max))
	if frac > 1 {
		frac = 1
	}
	// White → orange.
	g := 240 - int(120*frac)
	b := 240 - int(200*frac)
	return fmt.Sprintf("#f0%02x%02x", g, b)
}

func bitsLen(v uint64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}
