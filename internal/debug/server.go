// Package debug implements the live introspection server of the golisa
// simulators: an HTTP endpoint exposing Prometheus metrics, JSON
// pipeline/register/memory snapshots, the flight-recorder ring and the
// target-program profiler of a *running* simulation, plus run control —
// pause, resume, single-step, PC breakpoints and resource watchpoints —
// through the simulator's step-boundary gate.
//
// The server never touches simulator state directly: every request that
// needs it is funnelled through Controller.Do onto the simulation
// goroutine at a control-step boundary, so a live simulation stays
// single-threaded and race-free while it is being inspected.
package debug

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"golisa/internal/analyze"
	"golisa/internal/ast"
	"golisa/internal/bundle"
	"golisa/internal/cover"
	"golisa/internal/fleet"
	"golisa/internal/model"
	"golisa/internal/otrace"
	"golisa/internal/perf"
	"golisa/internal/profile"
	"golisa/internal/replay"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

// Options selects which data sources the server exposes; nil sources
// disable their endpoints with 404.
type Options struct {
	// Metrics backs GET /metrics (Prometheus exposition).
	Metrics *trace.Metrics
	// Flight backs GET /flight (post-mortem ring dump).
	Flight *trace.Flight
	// Profiler backs GET /profile (pprof protobuf for `go tool pprof`).
	Profiler *profile.Profiler
	// Analyzer backs GET /analyze (hazard attribution report).
	Analyzer *analyze.Analyzer
	// Recorder, when the simulation is being recorded, enables the
	// time-travel endpoints /rstep, /goto and /rcontinue.
	Recorder *replay.Recorder
	// Cover backs GET /coverage (model-coverage report of the live
	// simulation).
	Cover *cover.Collector
	// Perf backs GET /perf: it builds a sealed perf-observatory run
	// record from the live simulation's current state. The server calls
	// it on the simulation goroutine (under the controller funnel), so
	// implementations may read simulator state freely.
	Perf func() *perf.RunRecord
	// Batch backs POST /batch and POST /batch/stream: a manifest of jobs
	// run over one shared compiled-model artifact (internal/fleet),
	// independent of the live simulation. Its Metrics collector, when
	// set, backs GET /batch/metrics (Prometheus exposition of the fleet's
	// counters: jobs, failures, in-flight gauge, latency histogram).
	Batch *fleet.Service
	// StartPaused stops the simulation at its first step boundary so
	// breakpoints can be placed before any instruction runs.
	StartPaused bool
	// Log, when non-nil, receives one structured access-log line per
	// request (method, path, status, duration, request/trace ids).
	Log *slog.Logger
	// Bundle backs GET /bundle: it captures a diagnostic bundle of the
	// live run. The server calls it under the controller funnel, so
	// implementations may read simulator state freely; the archive is
	// streamed off it.
	Bundle func() (*bundle.Builder, error)
}

// Server exposes one simulator over HTTP. Create it with NewServer,
// install run control with Attach, and mount Handler on any http server.
type Server struct {
	sim  *sim.Simulator
	ctrl *Controller
	opts Options
	mux  *http.ServeMux
}

// NewServer builds the introspection server for a simulator. Breakpoints
// use the model's PROGRAM_COUNTER resource when it has one.
func NewServer(s *sim.Simulator, opts Options) *Server {
	var pcFn func() uint64
	if pc := programCounter(s.M); pc != nil {
		pcFn = func() uint64 { return s.S.Read(pc).Uint() }
	}
	srv := &Server{
		sim:  s,
		ctrl: NewController(pcFn, opts.StartPaused),
		opts: opts,
		mux:  http.NewServeMux(),
	}
	srv.routes()
	return srv
}

// programCounter finds the model's PROGRAM_COUNTER resource, or nil.
func programCounter(m *model.Model) *model.Resource {
	for _, r := range m.Resources {
		if r.Class == ast.ClassProgramCounter && !r.IsMemory() && !r.IsAlias {
			return r
		}
	}
	return nil
}

// Controller returns the run controller (for tests and embedding).
func (srv *Server) Controller() *Controller { return srv.ctrl }

// Attach installs the run-control gate on the simulator and returns the
// observer that must join the simulator's observer fanout for resource
// watchpoints to fire.
func (srv *Server) Attach() trace.Observer {
	srv.sim.Gate = srv.ctrl.Gate
	return srv.ctrl.Observer()
}

// Finish marks the simulation done; call it after Run returns so pending
// and future requests are served against the final state.
func (srv *Server) Finish() { srv.ctrl.Finish() }

// Handler returns the HTTP handler serving all endpoints, wrapped in
// the trace-context + access-log middleware: every request gets a trace
// context (joined from a valid client traceparent header, fresh
// otherwise), echoed back as a response traceparent header and used as
// the parent of any batch the request runs.
func (srv *Server) Handler() http.Handler { return srv.withObservability(srv.mux) }

// ListenAndServe serves the handler on addr until the process exits.
func (srv *Server) ListenAndServe(addr string) error {
	return http.ListenAndServe(addr, srv.Handler())
}

func (srv *Server) routes() {
	srv.mux.HandleFunc("/", srv.handleIndex)
	srv.mux.HandleFunc("/metrics", srv.handleMetrics)
	srv.mux.HandleFunc("/state", srv.handleState)
	srv.mux.HandleFunc("/flight", srv.handleFlight)
	srv.mux.HandleFunc("/profile", srv.handleProfile)
	srv.mux.HandleFunc("/analyze", srv.handleAnalyze)
	srv.mux.HandleFunc("/coverage", srv.handleCoverage)
	srv.mux.HandleFunc("/perf", srv.handlePerf)
	srv.mux.HandleFunc("/mem", srv.handleMem)
	srv.mux.HandleFunc("/pause", srv.handlePause)
	srv.mux.HandleFunc("/resume", srv.handleResume)
	srv.mux.HandleFunc("/step", srv.handleStep)
	srv.mux.HandleFunc("/break", srv.handleBreak)
	srv.mux.HandleFunc("/watch", srv.handleWatch)
	srv.mux.HandleFunc("/batch", srv.handleBatch)
	srv.mux.HandleFunc("/batch/stream", srv.handleBatchStream)
	srv.mux.HandleFunc("/batch/metrics", srv.handleBatchMetrics)
	srv.mux.HandleFunc("/rstep", srv.handleRStep)
	srv.mux.HandleFunc("/goto", srv.handleGoto)
	srv.mux.HandleFunc("/rcontinue", srv.handleRContinue)
	srv.mux.HandleFunc("/healthz", srv.handleHealthz)
	srv.mux.HandleFunc("/readyz", srv.handleReadyz)
	srv.mux.HandleFunc("/bundle", srv.handleBundle)
}

func (srv *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html><title>golisa %s</title><h1>golisa simulator: %s</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus counters</li>
<li><a href="/state">/state</a> — pipeline/register snapshot (JSON)</li>
<li><a href="/flight">/flight</a> — flight-recorder ring</li>
<li><a href="/profile">/profile</a> — pprof profile (go tool pprof http://HOST/profile)</li>
<li><a href="/analyze">/analyze</a> — hazard attribution report (?format=json|text|html)</li>
<li><a href="/coverage">/coverage</a> — model-coverage report (?format=json|text|html)</li>
<li><a href="/perf">/perf</a> — perf-observatory run record of the live state (?format=json|text)</li>
<li>/mem?name=MEM&amp;addr=A&amp;n=N — memory window</li>
<li>/pause /resume /step?n=N — run control</li>
<li>/break?pc=ADDR[&amp;clear=1] — PC breakpoints</li>
<li>/watch?resource=NAME[&amp;clear=1] — resource watchpoints</li>
<li>POST /batch — run a JSON job manifest over a shared artifact</li>
<li>POST /batch/stream — same manifest, NDJSON results streamed as jobs finish</li>
<li><a href="/batch/metrics">/batch/metrics</a> — fleet counters (Prometheus)</li>
<li>/rstep?n=N /goto?cycle=C /rcontinue — time travel (needs -record)</li>
<li><a href="/healthz">/healthz</a> — liveness (the process serves HTTP)</li>
<li><a href="/readyz">/readyz</a> — readiness (the simulation reached a step boundary; paused counts as ready)</li>
<li><a href="/bundle">/bundle</a> — diagnostic bundle (tar.gz: spans, flight, profile, analyze, coverage, perf, buildinfo)</li>
</ul>`, srv.sim.M.Name, srv.sim.M.Name)
}

func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if srv.opts.Metrics == nil {
		http.Error(w, "no metrics collector attached", http.StatusNotFound)
		return
	}
	var buf strings.Builder
	var err error
	srv.ctrl.Do(func() { err = srv.opts.Metrics.WriteText(&buf) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeProcessMetrics(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, buf.String())
}

func (srv *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if srv.opts.Flight == nil {
		http.Error(w, "no flight recorder attached", http.StatusNotFound)
		return
	}
	var buf strings.Builder
	var err error
	srv.ctrl.Do(func() { err = srv.opts.Flight.Dump(&buf) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, buf.String())
}

func (srv *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if srv.opts.Profiler == nil {
		http.Error(w, "no profiler attached", http.StatusNotFound)
		return
	}
	var raw []byte
	var err error
	srv.ctrl.Do(func() {
		var sb strings.Builder
		if err = srv.opts.Profiler.WritePprof(&sb); err == nil {
			raw = []byte(sb.String())
		}
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="profile.pb.gz"`)
	_, _ = w.Write(raw)
}

func (srv *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if srv.opts.Analyzer == nil {
		http.Error(w, "no hazard analyzer attached", http.StatusNotFound)
		return
	}
	// Snapshot on the simulation goroutine, render off it.
	var rep *analyze.Report
	srv.ctrl.Do(func() { rep = srv.opts.Analyzer.Report() })
	var buf strings.Builder
	var err error
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		err = rep.WriteJSON(&buf)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = rep.WriteText(&buf)
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		err = rep.WriteHTML(&buf)
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want json, text or html)", format), http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprint(w, buf.String())
}

// handleCoverage serves the live simulation's model-coverage report.
// Hardened per the batch-endpoint conventions: GET-only with Allow on
// 405 and JSON error bodies, since it is primarily machine-read.
func (srv *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	if srv.opts.Cover == nil {
		jsonError(w, http.StatusNotFound, "no coverage collector attached (run with -cov)")
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		jsonError(w, http.StatusMethodNotAllowed, "coverage is read-only, use GET")
		return
	}
	// Snapshot on the simulation goroutine, resolve and render off it.
	var snap *cover.Snapshot
	srv.ctrl.Do(func() { snap = srv.opts.Cover.Snapshot() })
	rep, err := srv.opts.Cover.Map().Resolve(snap)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var buf strings.Builder
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		err = rep.WriteJSON(&buf)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = rep.WriteText(&buf)
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		err = rep.WriteHTML(&buf)
	default:
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want json, text or html)", format))
		return
	}
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	fmt.Fprint(w, buf.String())
}

// handlePerf serves a perf-observatory run record of the live simulation's
// current state, hardened per the batch-endpoint conventions. The record
// is built on the simulation goroutine; mid-run records carry no wall
// tier (a paused simulation has no meaningful ns/cycle).
func (srv *Server) handlePerf(w http.ResponseWriter, r *http.Request) {
	if srv.opts.Perf == nil {
		jsonError(w, http.StatusNotFound, "no perf source attached")
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		jsonError(w, http.StatusMethodNotAllowed, "perf is read-only, use GET")
		return
	}
	var rec *perf.RunRecord
	srv.ctrl.Do(func() { rec = srv.opts.Perf() })
	if rec == nil {
		jsonError(w, http.StatusInternalServerError, "perf source returned no record")
		return
	}
	var buf strings.Builder
	var err error
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		err = rec.WriteJSON(&buf)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = rec.WriteText(&buf)
	default:
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want json or text)", format))
		return
	}
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	fmt.Fprint(w, buf.String())
}

// --- state snapshot -------------------------------------------------------------

// EntrySnapshot is one pipeline entry in a /state response.
type EntrySnapshot struct {
	Op       string `json:"op"`
	Stage    int    `json:"stage"`
	Executed bool   `json:"executed"`
}

// PacketSnapshot is one pipeline packet in a /state response.
type PacketSnapshot struct {
	ID      uint64          `json:"id"`
	Entries []EntrySnapshot `json:"entries"`
}

// StageSnapshot is one pipeline stage in a /state response.
type StageSnapshot struct {
	Name     string          `json:"name"`
	Occupied bool            `json:"occupied"`
	Packet   *PacketSnapshot `json:"packet,omitempty"`
}

// PipeSnapshot is one pipeline in a /state response.
type PipeSnapshot struct {
	Name   string          `json:"name"`
	Stages []StageSnapshot `json:"stages"`
}

// RegSnapshot is one scalar resource in a /state response.
type RegSnapshot struct {
	Name  string `json:"name"`
	Class string `json:"class,omitempty"`
	Width int    `json:"width"`
	Value uint64 `json:"value"`
	Hex   string `json:"hex"`
}

// MemSnapshot describes one memory resource in a /state response (use
// /mem for contents).
type MemSnapshot struct {
	Name  string `json:"name"`
	Base  uint64 `json:"base"`
	Size  uint64 `json:"size"`
	Width int    `json:"width"`
}

// StateSnapshot is the full /state response.
type StateSnapshot struct {
	Model       string         `json:"model"`
	Mode        string         `json:"mode"`
	Step        uint64         `json:"step"`
	Halted      bool           `json:"halted"`
	Paused      bool           `json:"paused"`
	StopCause   string         `json:"stop_cause,omitempty"`
	Done        bool           `json:"done"`
	Pipes       []PipeSnapshot `json:"pipes"`
	Registers   []RegSnapshot  `json:"registers"`
	Memories    []MemSnapshot  `json:"memories"`
	Breakpoints []uint64       `json:"breakpoints,omitempty"`
	Watches     []string       `json:"watches,omitempty"`
}

func (srv *Server) snapshot() StateSnapshot {
	s := srv.sim
	snap := StateSnapshot{
		Model:  s.M.Name,
		Mode:   s.Mode().String(),
		Step:   s.Step(),
		Halted: s.Halted(),
	}
	for _, p := range s.Pipes() {
		ps := PipeSnapshot{Name: p.Def.Name}
		for i, name := range p.Def.Stages {
			st := StageSnapshot{Name: name, Occupied: p.Slots[i] != nil}
			if pkt := p.Slots[i]; pkt != nil {
				pks := &PacketSnapshot{ID: pkt.ID}
				for _, e := range pkt.Entries {
					pks.Entries = append(pks.Entries, EntrySnapshot{
						Op: e.Inst.Op.Name, Stage: e.StageIdx, Executed: e.Executed(),
					})
				}
				st.Packet = pks
			}
			ps.Stages = append(ps.Stages, st)
		}
		snap.Pipes = append(snap.Pipes, ps)
	}
	for _, r := range s.M.Resources {
		if r.IsAlias {
			continue
		}
		if r.IsMemory() {
			snap.Memories = append(snap.Memories, MemSnapshot{
				Name: r.Name, Base: r.Base, Size: r.Size, Width: r.Width,
			})
			continue
		}
		v := s.S.Read(r).Uint()
		class := ""
		if r.Class != ast.ClassNone {
			class = r.Class.String()
		}
		snap.Registers = append(snap.Registers, RegSnapshot{
			Name: r.Name, Class: class, Width: r.Width,
			Value: v, Hex: fmt.Sprintf("%#x", v),
		})
	}
	for pc := range srv.ctrl.breakpoints {
		snap.Breakpoints = append(snap.Breakpoints, pc)
	}
	sort.Slice(snap.Breakpoints, func(i, j int) bool { return snap.Breakpoints[i] < snap.Breakpoints[j] })
	for res := range srv.ctrl.watches {
		snap.Watches = append(snap.Watches, res)
	}
	sort.Strings(snap.Watches)
	return snap
}

func (srv *Server) handleState(w http.ResponseWriter, r *http.Request) {
	var snap StateSnapshot
	srv.ctrl.Do(func() { snap = srv.snapshot() })
	_, snap.Paused, snap.StopCause, snap.Done = srv.ctrl.Status()
	writeJSON(w, snap)
}

func (srv *Server) handleMem(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	res := srv.sim.M.Resource(name)
	if res == nil || !res.IsMemory() {
		http.Error(w, fmt.Sprintf("no memory resource %q", name), http.StatusBadRequest)
		return
	}
	addr, err := parseUint(r.URL.Query().Get("addr"), res.Base)
	if err != nil {
		http.Error(w, "bad addr: "+err.Error(), http.StatusBadRequest)
		return
	}
	n, err := parseUint(r.URL.Query().Get("n"), 16)
	if err != nil {
		http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
		return
	}
	if n > 4096 {
		n = 4096
	}
	type memWindow struct {
		Name   string   `json:"name"`
		Addr   uint64   `json:"addr"`
		Values []uint64 `json:"values"`
	}
	win := memWindow{Name: name, Addr: addr}
	srv.ctrl.Do(func() {
		for i := uint64(0); i < n; i++ {
			v, err := srv.sim.S.ReadElem(res, addr+i)
			if err != nil {
				break
			}
			win.Values = append(win.Values, v.Uint())
		}
	})
	writeJSON(w, win)
}

// --- run control ----------------------------------------------------------------

// controlAck is the response of every run-control endpoint.
type controlAck struct {
	Step      uint64 `json:"step"`
	Paused    bool   `json:"paused"`
	StopCause string `json:"stop_cause,omitempty"`
	Done      bool   `json:"done"`
}

func (srv *Server) ack(w http.ResponseWriter) {
	var a controlAck
	a.Step, a.Paused, a.StopCause, a.Done = srv.ctrl.Status()
	writeJSON(w, a)
}

func (srv *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	srv.ctrl.Pause()
	srv.ack(w)
}

func (srv *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	srv.ctrl.Resume()
	srv.ack(w)
}

func (srv *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	n, err := parseUint(r.URL.Query().Get("n"), 1)
	if err != nil || n == 0 {
		http.Error(w, "bad n", http.StatusBadRequest)
		return
	}
	srv.ctrl.StepN(n)
	srv.ack(w)
}

func (srv *Server) handleBreak(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if pcStr := q.Get("pc"); pcStr != "" {
		pc, err := parseUint(pcStr, 0)
		if err != nil {
			http.Error(w, "bad pc (decimal or 0x hex)", http.StatusBadRequest)
			return
		}
		srv.ctrl.SetBreak(pc, q.Get("clear") == "")
	}
	bps := srv.ctrl.Breakpoints()
	sort.Slice(bps, func(i, j int) bool { return bps[i] < bps[j] })
	writeJSON(w, map[string]any{"breakpoints": bps})
}

func (srv *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if name := q.Get("resource"); name != "" {
		res := srv.sim.M.Resource(name)
		if res == nil {
			http.Error(w, fmt.Sprintf("no resource %q", name), http.StatusBadRequest)
			return
		}
		srv.ctrl.SetWatch(res, q.Get("clear") == "")
	}
	ws := srv.ctrl.Watches()
	sort.Strings(ws)
	writeJSON(w, map[string]any{"watches": ws})
}

// maxBatchBody caps the request body of the batch endpoints: a manifest
// of inline assembly sources has no business being larger.
const maxBatchBody = 8 << 20

// jsonError writes a JSON error body ({"error": msg}) with the given
// status and correct Content-Type, the error convention of the batch
// endpoints (their clients are programs, not browsers).
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// decodeManifest enforces the batch endpoints' request contract: the
// fleet service must be attached, the method must be POST, the body must
// be a JSON manifest under maxBatchBody bytes. On violation it writes
// the JSON error response and returns ok=false.
func (srv *Server) decodeManifest(w http.ResponseWriter, r *http.Request) (*fleet.Manifest, bool) {
	if srv.opts.Batch == nil {
		jsonError(w, http.StatusNotFound, "no batch service attached")
		return nil, false
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		jsonError(w, http.StatusMethodNotAllowed, "POST a JSON job manifest")
		return nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var man fleet.Manifest
	if err := json.NewDecoder(r.Body).Decode(&man); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			jsonError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("manifest exceeds %d bytes", tooBig.Limit))
			return nil, false
		}
		jsonError(w, http.StatusBadRequest, "malformed manifest: "+err.Error())
		return nil, false
	}
	return &man, true
}

// handleBatch runs a POSTed job manifest through the fleet service. The
// jobs execute on their own simulators sharing one artifact, so the live
// simulation is neither paused nor touched; the response is the fleet
// summary with per-job results in manifest order.
func (srv *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	man, ok := srv.decodeManifest(w, r)
	if !ok {
		return
	}
	sum, err := srv.opts.Batch.Run(man, nil, srv.requestTrace(r))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, sum)
}

// requestTrace builds the fleet trace for a batch request, continuing
// the context the middleware minted (itself joined from the client's
// traceparent when one was sent): the batch's spans, stream records,
// perf records and Chrome lanes all carry the request's TraceID, and
// the access-log line for the request carries the matching request id.
func (srv *Server) requestTrace(r *http.Request) *otrace.Trace {
	return otrace.Join(requestContext(r), "http "+r.URL.Path)
}

// handleBatchStream runs a POSTed manifest like /batch but streams the
// response as NDJSON: one "job" record the moment each worker finishes
// (flushed per line), then one final "summary" record with the results
// elided. A client watching a long batch sees every result as it lands —
// the first piece of the simulation-as-a-service streaming surface.
func (srv *Server) handleBatchStream(w http.ResponseWriter, r *http.Request) {
	man, ok := srv.decodeManifest(w, r)
	if !ok {
		return
	}
	// Headers are not flushed until the first record is written, and the
	// fleet validates the manifest before any job runs, so a validation
	// error can still replace them with a JSON error response.
	w.Header().Set("Content-Type", "application/x-ndjson")
	st := fleet.NewStreamer(w)
	sum, err := srv.opts.Batch.Run(man, st.WriteJob, srv.requestTrace(r))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	st.WriteSummary(sum)
}

// handleBatchMetrics serves the fleet metrics collector (Prometheus text
// exposition). Unlike /metrics it does not synchronize with the live
// simulation — the fleet collector locks its own state.
func (srv *Server) handleBatchMetrics(w http.ResponseWriter, r *http.Request) {
	if srv.opts.Batch == nil || srv.opts.Batch.Metrics == nil {
		jsonError(w, http.StatusNotFound, "no fleet metrics collector attached")
		return
	}
	var buf strings.Builder
	if err := srv.opts.Batch.Metrics.WriteText(&buf); err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeProcessMetrics(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, buf.String())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func parseUint(s string, deflt uint64) (uint64, error) {
	if s == "" {
		return deflt, nil
	}
	if strings.HasPrefix(s, "0x") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}
