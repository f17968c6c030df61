//jiglint:allow wallclock (HTTP edge: uptime and rate metrics are wall-clock by nature)

package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/tracefile"
)

// Info is the static daemon identity /summary reports alongside the
// pipeline stats.
type Info struct {
	Dir    string  `json:"dir"`
	Radios []int32 `json:"radios"`
}

// Server is jigd's HTTP surface over a Monitor. Endpoints:
//
//	GET /healthz          200 once the first window has closed, else 503
//	GET /summary          cumulative pipeline stats + daemon identity
//	GET /reports/<pass>   latest closed-window Section for one pass
//	GET /metrics          live counters, rates and heap stats
//
// All responses are JSON. The handlers read only detached snapshots and
// atomics, never pass state, so they are safe while the pipeline runs.
type Server struct {
	// Tail, when set before serving, supplies the feed counters in /metrics.
	Tail func() tracefile.TailCounters

	mon     *Monitor
	info    Info
	started time.Time
	mux     *http.ServeMux
}

// NewServer builds the HTTP surface. The returned Server is an
// http.Handler; wrap it in an http.Server to listen.
func NewServer(mon *Monitor, info Info) *Server {
	s := &Server{mon: mon, info: info, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/summary", s.handleSummary)
	mux.HandleFunc("/reports/", s.handleReport)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON encodes one response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.mon.Healthy() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "waiting", "detail": "no analysis window closed yet",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Info Info `json:"info"`
		SummaryStats
		UptimeSec float64 `json:"uptime_sec"`
	}{s.info, s.mon.Summary(), time.Since(s.started).Seconds()})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	pass := strings.TrimPrefix(r.URL.Path, "/reports/")
	if pass == "" {
		writeJSON(w, http.StatusOK, map[string]any{"passes": s.mon.PassNames()})
		return
	}
	rep, ok := s.mon.Report(pass)
	if !ok {
		known := false
		for _, name := range s.mon.PassNames() {
			if name == pass {
				known = true
				break
			}
		}
		if !known {
			writeJSON(w, http.StatusNotFound, map[string]any{
				"error": "unknown pass", "passes": s.mon.PassNames(),
			})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error": "no window closed yet for pass", "pass": pass,
		})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// metricsBody is the /metrics response.
type metricsBody struct {
	Counters
	tracefile.TailCounters
	FramesPerSec float64 `json:"frames_per_sec"`
	UptimeSec    float64 `json:"uptime_sec"`
	HeapAllocB   uint64  `json:"heap_alloc_bytes"`
	HeapSysB     uint64  `json:"heap_sys_bytes"`
	NumGC        uint32  `json:"num_gc"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := s.mon.Metrics()
	up := time.Since(s.started).Seconds()
	body := metricsBody{
		Counters:   c,
		UptimeSec:  up,
		HeapAllocB: ms.HeapAlloc, HeapSysB: ms.HeapSys, NumGC: ms.NumGC,
	}
	if up > 0 {
		body.FramesPerSec = float64(c.FramesTotal) / up
	}
	if s.Tail != nil {
		body.TailCounters = s.Tail()
	}
	writeJSON(w, http.StatusOK, body)
}
