// The umid daemon: a long-lived control plane multiplexing many
// concurrent profiling sessions. Each session keeps its own System or
// Replay (its own logical cache and history) and shares nothing
// analytical with its co-tenants, so co-tenancy cannot perturb results —
// a session run through the daemon produces byte-identical output to the
// same config run standalone.
//
// Lifecycle surface (Go 1.22 method+pattern routes):
//
//	POST   /sessions             create from a SessionConfig JSON body
//	GET    /sessions             list sessions with state
//	POST   /sessions/{id}/run    execute to completion, return the result
//	POST   /sessions/{id}/ingest replay a umi-profile/v1|v2 stream (?live=1 to tail)
//	GET    /sessions/{id}/...    the session views (package comment)
//	DELETE /sessions/{id}        remove the session
//	GET    /metrics/prom         fleet Prometheus exposition (session label)
//	GET    /fleet/delinquent     cross-session delinquent-set union/intersection
//	GET    /fleet/phases         cross-session phase-change correlation
//	GET    /debug/pprof/         the daemon process's Go runtime profiles
//
// Admission control: creates past MaxSessions are rejected with 429, and
// during a drain every mutating request gets 503. Work stays bounded
// without a daemon-wide queue: at most MaxSessions sessions, each
// analyzing on its own run goroutine, or for an upload on a sequencer with
// at most four invocations (umi's seqDepth) queued, where a full queue
// blocks only that upload.
package introspect

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"sort"
	"strconv"
	"sync"

	"umi/internal/harness"
	"umi/internal/metrics"
	"umi/internal/tracelog"
	"umi/internal/umi"
)

// Daemon defaults, used when the corresponding DaemonConfig field is zero.
const (
	DefaultMaxSessions = 64
	// maxConfigBytes bounds a POST /sessions body; MaxTraceAddrs addresses
	// at ~20 JSON bytes each fit with ample slack.
	maxConfigBytes = 1 << 20
	// sessionEvents is the event-ring size of a daemon-run session.
	// Reference runs emit a few hundred events, so the ring keeps a whole
	// run while MaxSessions bounds the rings' total memory.
	sessionEvents = 4096
)

// DaemonConfig sizes a Daemon.
type DaemonConfig struct {
	// MaxSessions caps concurrently-registered sessions; creates past it
	// are rejected with 429.
	MaxSessions int
}

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	return c
}

// sessionState is the lifecycle state machine: created → running →
// done|failed, and for ingest sessions running → resumable (a live
// upload cut off at a recoverable point; re-sending the stream resumes
// it) → running. DELETE is legal in any state.
type sessionState string

const (
	stateCreated   sessionState = "created"
	stateRunning   sessionState = "running"
	stateDone      sessionState = "done"
	stateFailed    sessionState = "failed"
	stateResumable sessionState = "resumable"
)

// session is one registered guest session.
type session struct {
	id  string
	seq uint64 // creation order, for stable listings
	cfg SessionConfig

	mu     sync.Mutex
	state  sessionState
	sys    *umi.System // live once a run attaches (adopted: from the start); kept after finish
	ing    *ingestState
	result *RunResult
	runErr error
	// deleted latches on DELETE, so an ingest that looked the session up
	// just before is refused.
	deleted bool
	// prev is the snapshot the previous metrics/delta scrape took, so
	// each scrape reports one interval.
	prev metrics.Snapshot
}

// sources resolves what the session's views read: the guest System (nil
// before a run attaches, and for ingest sessions), the ingest replayer,
// and the completed result.
func (s *session) sources() (*umi.System, *umi.Replay, *RunResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rp *umi.Replay
	if s.ing != nil {
		rp = s.ing.replay
	}
	return s.sys, rp, s.result
}

// snapshot copies the guest's registry, or the ingest replayer's.
func (s *session) snapshot() metrics.Snapshot {
	sys, rp, _ := s.sources()
	switch {
	case sys != nil:
		return sys.MetricsSnapshot()
	case rp != nil:
		return rp.Metrics().Snapshot()
	}
	return metrics.Snapshot{}
}

// history snapshots the guest's history ring. Ingest sessions serve the
// merged streamed history as of the last completed shard, from the
// session's result: the replay merges each shard's history at the end of
// an ingest that runs outside the session mutex.
func (s *session) history() umi.HistoryView {
	sys, _, res := s.sources()
	switch {
	case sys != nil:
		return sys.History()
	case res != nil:
		return res.History
	}
	return (*umi.History)(nil).View()
}

// overhead assembles the guest's per-stage self-overhead report. Ingest
// sessions have no guest (the replayer pays its own costs on daemon
// time), so they report nil.
func (s *session) overhead() *umi.OverheadReport {
	if sys, _, _ := s.sources(); sys != nil {
		return sys.Overhead()
	}
	return nil
}

// events is the guest's event ring, or nil — which every view reads as an
// empty ring — when there is no guest.
func (s *session) events() *tracelog.Log {
	if sys, _, _ := s.sources(); sys != nil {
		return sys.EventLog()
	}
	return nil
}

// Daemon multiplexes concurrent sessions over one HTTP surface.
type Daemon struct {
	cfg    DaemonConfig
	ingest *ingestMetrics

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	draining bool

	runs sync.WaitGroup // in-flight run handlers, for graceful drain
}

// NewDaemon builds a daemon.
func NewDaemon(cfg DaemonConfig) *Daemon {
	cfg = cfg.withDefaults()
	return &Daemon{
		cfg:      cfg,
		ingest:   newIngestMetrics(),
		sessions: make(map[string]*session),
	}
}

// SessionCount reports currently-registered sessions (exact accounting:
// a DELETE removes its session before the handler returns).
func (d *Daemon) SessionCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions)
}

// Shutdown drains the daemon: new mutating requests are refused with 503
// and in-flight runs complete. Idempotent.
func (d *Daemon) Shutdown() {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	d.runs.Wait()
}

// lookup resolves a session id; the bool reports existence.
func (d *Daemon) lookup(id string) (*session, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[id]
	return s, ok
}

// snapshotSessions returns the registered sessions in creation order.
func (d *Daemon) snapshotSessions() []*session {
	d.mu.Lock()
	out := make([]*session, 0, len(d.sessions))
	for _, s := range d.sessions {
		out = append(out, s)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// Handler returns the daemon's route table.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", d.index)
	mux.HandleFunc("POST /sessions", d.createSession)
	mux.HandleFunc("GET /sessions", d.listSessions)
	mux.HandleFunc("POST /sessions/{id}/run", d.runSession)
	mux.HandleFunc("POST /sessions/{id}/ingest", d.ingestSession)
	mux.HandleFunc("DELETE /sessions/{id}", d.deleteSession)
	view := func(name string, serve func(*session, http.ResponseWriter, *http.Request)) {
		mux.HandleFunc("GET /sessions/{id}/"+name, func(w http.ResponseWriter, r *http.Request) {
			if s, ok := d.lookup(r.PathValue("id")); ok {
				serve(s, w, r)
			} else {
				http.NotFound(w, r)
			}
		})
	}
	view("report", (*session).serveReport)
	view("metrics", (*session).serveMetrics)
	view("metrics/delta", (*session).serveDelta)
	view("history", (*session).serveHistory)
	view("overhead", (*session).serveOverhead)
	view("events", (*session).serveEvents)
	view("events/timeline", (*session).serveTimeline)
	view("events/trace", (*session).serveTrace)
	mux.HandleFunc("GET /metrics/prom", d.fleetProm)
	mux.HandleFunc("GET /fleet/delinquent", d.fleetDelinquent)
	mux.HandleFunc("GET /fleet/phases", d.fleetPhases)
	// Importing net/http/pprof registers its handlers on the default mux.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

func (d *Daemon) index(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `umid — multi-session UMI profiling daemon

POST   /sessions             create a session (SessionConfig JSON)
GET    /sessions             list sessions
POST   /sessions/{id}/run    run to completion, returns the result
POST   /sessions/{id}/ingest replay a umi-profile/v1|v2 stream (?live=1 to tail)
DELETE /sessions/{id}        remove a session
GET    /metrics/prom         fleet Prometheus exposition
GET    /fleet/delinquent     delinquent-set union/intersection
GET    /fleet/phases         phase-change correlation
GET    /debug/pprof/         Go runtime profiles

GET    /sessions/{id}/report           completed run result
GET    /sessions/{id}/metrics          self-observability snapshot
GET    /sessions/{id}/metrics/delta    change since the previous delta scrape
GET    /sessions/{id}/history          profile-history windows
GET    /sessions/{id}/overhead         per-stage self-overhead attribution
GET    /sessions/{id}/events           recent lifecycle events (?n=100 limits)
GET    /sessions/{id}/events/timeline  deterministic plain-text timeline
GET    /sessions/{id}/events/trace     Chrome trace-event JSON (open in Perfetto)
`)
}

// sessionInfo is the listing/creation JSON shape.
type sessionInfo struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Guest names the workload, or "trace[n]" for a submitted stream.
	Guest string `json:"guest"`
	Error string `json:"error,omitempty"`
	// Resume, present while the session is resumable, names the safe
	// point (stream frame count and rolling checksum) a re-sent live
	// stream will be resumed from.
	Resume *resumePoint `json:"resume,omitempty"`
}

type resumePoint struct {
	Frames   uint64 `json:"frames"`
	Checksum uint64 `json:"checksum"`
}

// guestLabel names the session's guest. Ingest sessions pick up the
// workload name from the first stream header. Caller holds s.mu.
func (s *session) guestLabel() string {
	if s.cfg.Ingest {
		if s.ing != nil && s.ing.guest != "" {
			return "ingest:" + s.ing.guest
		}
		return "ingest"
	}
	return s.cfg.guestName()
}

func (s *session) info() sessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	inf := sessionInfo{ID: s.id, State: string(s.state), Guest: s.guestLabel()}
	if s.runErr != nil {
		inf.Error = s.runErr.Error()
	}
	if s.state == stateResumable && s.ing != nil {
		inf.Resume = &resumePoint{Frames: s.ing.resumeFrames, Checksum: s.ing.resumeChk}
	}
	return inf
}

func (d *Daemon) createSession(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxConfigBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxConfigBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "config exceeds %d bytes", maxConfigBytes)
		return
	}
	cfg, err := ParseSessionConfig(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s, code, err := d.admit(cfg, nil)
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}

	// The Content-Type must be set before WriteHeader commits the response
	// head; writeJSON's own Set would land too late to be sent.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, s.info())
}

// admit registers a session, refusing it while the daemon drains (503)
// or at MaxSessions (429). A session adopted with its System is running
// from the start.
func (d *Daemon) admit(cfg SessionConfig, sys *umi.System) (*session, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return nil, http.StatusServiceUnavailable, errors.New("daemon is draining")
	}
	if len(d.sessions) >= d.cfg.MaxSessions {
		return nil, http.StatusTooManyRequests, fmt.Errorf("session limit %d reached", d.cfg.MaxSessions)
	}
	d.nextID++
	s := &session{id: fmt.Sprintf("s%d", d.nextID), seq: d.nextID, cfg: cfg, state: stateCreated, sys: sys}
	if sys != nil {
		s.state = stateRunning
	}
	d.sessions[s.id] = s
	return s, 0, nil
}

// Adopt registers a System the caller runs itself as a session of the
// named guest, so its views are served like any daemon session's (this is
// how `umiprof -http` serves its own run). The session is running until
// the caller hands finish the finished run's RunResult (ResultOf), which
// makes it done with that report. Adopt fails where POST /sessions would
// answer 429 or 503.
func (d *Daemon) Adopt(guest string, sys *umi.System) (id string, finish func(*RunResult), err error) {
	s, _, err := d.admit(SessionConfig{Workload: guest}, sys)
	if err != nil {
		return "", nil, err
	}
	return s.id, func(res *RunResult) {
		s.mu.Lock()
		s.state, s.result = stateDone, res
		s.mu.Unlock()
	}, nil
}

func (d *Daemon) listSessions(w http.ResponseWriter, r *http.Request) {
	sessions := d.snapshotSessions()
	infos := make([]sessionInfo, 0, len(sessions))
	for _, s := range sessions {
		infos = append(infos, s.info())
	}
	writeJSON(w, infos)
}

func (d *Daemon) runSession(w http.ResponseWriter, r *http.Request) {
	s, ok := d.lookup(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}

	// Admission: refuse while draining — the only refusal a run gets.
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	// The run must be registered for drain before draining can flip, so
	// Shutdown's runs.Wait() covers it; both happen under d.mu.
	d.runs.Add(1)
	d.mu.Unlock()
	defer d.runs.Done()

	if s.cfg.Ingest {
		httpError(w, http.StatusConflict, "session %s ingests streams; POST to /sessions/%s/ingest", s.id, s.id)
		return
	}
	s.mu.Lock()
	if s.state != stateCreated {
		state := s.state
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "session %s is %s, can only run once from created", s.id, state)
		return
	}
	s.state = stateRunning
	s.mu.Unlock()

	// Runs execute synchronously on the request goroutine: the HTTP server
	// already gives each session its own goroutine, and the client gets
	// the result as the response body.
	res, err := runSession(&s.cfg, func(r *harness.UMIRun) {
		r.Sys.EnableEventTrace(sessionEvents)
		s.mu.Lock()
		s.sys = r.Sys
		s.mu.Unlock()
	})

	s.mu.Lock()
	if err != nil {
		s.state = stateFailed
		s.runErr = err
	} else {
		s.state = stateDone
		s.result = res
	}
	s.mu.Unlock()

	if err != nil {
		httpError(w, http.StatusInternalServerError, "run: %v", err)
		return
	}
	writeJSON(w, res)
}

func (s *session) serveReport(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	res, state, runErr := s.result, s.state, s.runErr
	s.mu.Unlock()
	if state == stateFailed {
		httpError(w, http.StatusInternalServerError, "run failed: %v", runErr)
		return
	}
	if res == nil {
		httpError(w, http.StatusConflict, "session %s is %s; report available once done", s.id, state)
		return
	}
	writeJSON(w, res)
}

func (s *session) serveMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.snapshot())
}

func (s *session) serveDelta(w http.ResponseWriter, r *http.Request) {
	cur := s.snapshot()
	s.mu.Lock()
	d := cur.Diff(s.prev)
	s.prev = cur
	s.mu.Unlock()
	writeJSON(w, d)
}

func (s *session) serveHistory(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.history())
}

func (s *session) serveOverhead(w http.ResponseWriter, r *http.Request) {
	rep := s.overhead()
	if rep == nil {
		rep = &umi.OverheadReport{Schema: umi.OverheadSchema}
	}
	writeJSON(w, rep)
}

// eventsPayload is the events view: ring accounting plus the retained
// events, oldest first.
type eventsPayload struct {
	Total  uint64           `json:"total"`
	Drops  uint64           `json:"drops"`
	Cap    int              `json:"cap"`
	Events []tracelog.Event `json:"events"`
}

func (s *session) serveEvents(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	elog := s.events()
	evs := elog.Recent(n)
	if evs == nil {
		evs = []tracelog.Event{}
	}
	writeJSON(w, eventsPayload{Total: elog.Total(), Drops: elog.Drops(), Cap: elog.Cap(), Events: evs})
}

func (s *session) serveTimeline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	elog := s.events()
	io.WriteString(w, tracelog.Timeline(elog.Events(), elog.Drops()))
}

func (s *session) serveTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	tracelog.WriteChromeTrace(w, s.events().Events())
}

func (d *Daemon) deleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d.mu.Lock()
	s, ok := d.sessions[id]
	delete(d.sessions, id)
	d.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	// A run or upload still executing holds its own reference and
	// completes; its result is simply unreachable. An upload's sequencer
	// stops with the upload, so nothing is left to close. Accounting is
	// exact the moment the delete returns.
	s.mu.Lock()
	s.deleted = true
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// fleetProm renders every session's registry, phase history and
// overhead attribution as one session-labeled exposition, plus the
// daemon's own ingest counters under the reserved label "ingest".
func (d *Daemon) fleetProm(w http.ResponseWriter, r *http.Request) {
	sets := []metrics.Labeled{{Session: "ingest", Families: d.ingest.reg.Snapshot().Families()}}
	for _, s := range d.snapshotSessions() {
		fams := append(s.snapshot().Families(), s.history().Families()...)
		sets = append(sets, metrics.Labeled{Session: s.id, Families: append(fams, s.overhead().Families()...)})
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	metrics.WritePrometheus(w, sets...)
}

// fleetMember pairs a session id with its completed result, the input to
// the fleet aggregation renders. Sessions without a completed run are
// excluded — aggregation compares results, not intentions.
type fleetMember struct {
	ID     string
	Guest  string
	Result *RunResult
}

// completedFleet snapshots sessions holding a completed result, in
// creation order.
func (d *Daemon) completedFleet() []fleetMember {
	var fleet []fleetMember
	for _, s := range d.snapshotSessions() {
		s.mu.Lock()
		res, guest := s.result, s.guestLabel()
		s.mu.Unlock()
		if res != nil {
			fleet = append(fleet, fleetMember{ID: s.id, Guest: guest, Result: res})
		}
	}
	return fleet
}

func (d *Daemon) fleetDelinquent(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, FormatFleetDelinquent(d.completedFleet()))
}

func (d *Daemon) fleetPhases(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, FormatFleetPhases(d.completedFleet()))
}

// Serve starts the daemon's HTTP surface on addr, serving on a background
// goroutine, and returns the bound address and a stop function. The stop
// function shuts the listener down and waits for it, but does not drain
// the daemon — call Shutdown for that.
func (d *Daemon) Serve(addr string) (string, func(), error) {
	return serveHandler(addr, d.Handler())
}
