// The umid daemon: a long-lived control plane multiplexing many
// concurrent profiling sessions over one shared analyzer preparation
// pool. Each session keeps its own System (per-session sequencer, logical
// cache, history ring) so co-tenancy cannot perturb results — a session
// run through the daemon produces byte-identical output to the same
// config run standalone — while the expensive stateless preparation work
// is shared and scheduled fairly (round-robin across session lanes).
//
// Lifecycle surface (Go 1.22 method+pattern routes):
//
//	POST   /sessions             create from a SessionConfig JSON body
//	GET    /sessions             list sessions with state
//	POST   /sessions/{id}/run    execute to completion, return the result
//	POST   /sessions/{id}/ingest replay a umi-profile/v1|v2 stream (?live=1 to tail)
//	GET    /sessions/{id}/report completed RunResult (409 until done)
//	GET    /sessions/{id}/history  live profile-history windows
//	GET    /sessions/{id}/metrics  live self-observability snapshot
//	DELETE /sessions/{id}        remove the session
//	GET    /metrics/prom         fleet Prometheus exposition (session label)
//	GET    /fleet/delinquent     cross-session delinquent-set union/intersection
//	GET    /fleet/phases         cross-session phase-change correlation
//
// Admission control: creates past MaxSessions and runs past the shared
// queue's high-water mark are rejected with 429 so a saturated daemon
// sheds load instead of queueing unboundedly; during a drain every
// mutating request gets 503.
package introspect

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"umi/internal/metrics"
	"umi/internal/umi"
)

// Daemon defaults, used when the corresponding DaemonConfig field is zero.
const (
	DefaultMaxSessions = 64
	DefaultPrepWorkers = 4
	// maxConfigBytes bounds a POST /sessions body; MaxTraceAddrs addresses
	// at ~20 JSON bytes each fit with ample slack.
	maxConfigBytes = 1 << 20
)

// DaemonConfig sizes a Daemon.
type DaemonConfig struct {
	// MaxSessions caps concurrently-registered sessions; creates past it
	// are rejected with 429.
	MaxSessions int
	// PrepWorkers is the shared preparation pool's width.
	PrepWorkers int
	// QueueBound caps the shared pool's pending-job queue (0 takes the
	// pool default). Enqueues past it block the submitting session only.
	QueueBound int
	// QueueHighWater rejects new run requests with 429 while the shared
	// queue holds at least this many jobs (0 takes the queue bound).
	QueueHighWater int
}

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.PrepWorkers <= 0 {
		c.PrepWorkers = DefaultPrepWorkers
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
	sys    *umi.System // live once a run has attached; kept after finish
	ing    *ingestState
	result *RunResult
	runErr error
	// deleted latches on DELETE, so an ingest still in flight then
	// closes its replay when it finishes.
	deleted bool
}

// release marks the session deleted and returns the ingest replay to
// close now — nil while an ingest is in flight (it closes the replay
// itself when it finishes) or when there is none. Closing drains the
// replay's pipeline and detaches its SharedPrep lane and sequencer.
func (s *session) release() *umi.Replay {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deleted = true
	if s.state == stateRunning || s.ing == nil {
		return nil
	}
	return s.ing.replay
}

// liveMetrics snapshots the session's registry if a run has attached one.
// Ingest sessions serve their replayer's registry instead.
func (s *session) liveMetrics() metrics.Snapshot {
	s.mu.Lock()
	sys, ing := s.sys, s.ing
	s.mu.Unlock()
	if sys != nil {
		return sys.LiveMetricsSnapshot()
	}
	if ing != nil && ing.replay != nil {
		return ing.replay.Metrics().Snapshot()
	}
	return metrics.Snapshot{}
}

// liveOverhead assembles the session's per-stage self-overhead report when
// a live run is attached. Ingest sessions have no guest (the replayer pays
// its own costs on daemon time), so they serve nothing here.
func (s *session) liveOverhead() *umi.OverheadReport {
	s.mu.Lock()
	sys := s.sys
	s.mu.Unlock()
	if sys != nil {
		return sys.LiveOverhead()
	}
	return nil
}

// liveHistory snapshots the session's history ring if a run has attached.
// Ingest sessions serve the merged streamed history from the last
// completed shard (their replayer has no live ring of its own to scrape
// without draining it).
func (s *session) liveHistory() umi.HistoryView {
	s.mu.Lock()
	sys, res := s.sys, s.result
	s.mu.Unlock()
	if sys != nil {
		return sys.LiveHistory()
	}
	if res != nil {
		return res.History
	}
	return (*umi.History)(nil).View()
}

// Daemon multiplexes sessions over one shared preparation pool.
type Daemon struct {
	cfg    DaemonConfig
	shared *umi.SharedPrep
	ingest *ingestMetrics

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	draining bool

	runs sync.WaitGroup // in-flight run handlers, for graceful drain
}

// NewDaemon builds a daemon and its shared pool.
func NewDaemon(cfg DaemonConfig) *Daemon {
	cfg = cfg.withDefaults()
	return &Daemon{
		cfg:      cfg,
		shared:   umi.NewSharedPrep(cfg.PrepWorkers, cfg.QueueBound),
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

// Shutdown drains the daemon: new mutating requests are refused with 503,
// in-flight runs complete, then the shared pool stops. Idempotent.
func (d *Daemon) Shutdown() {
	d.mu.Lock()
	already := d.draining
	d.draining = true
	d.mu.Unlock()
	d.runs.Wait()
	if !already {
		d.shared.Close()
	}
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
	mux.HandleFunc("GET /sessions/{id}/report", d.sessionReport)
	mux.HandleFunc("GET /sessions/{id}/history", d.sessionHistory)
	mux.HandleFunc("GET /sessions/{id}/metrics", d.sessionMetrics)
	mux.HandleFunc("DELETE /sessions/{id}", d.deleteSession)
	mux.HandleFunc("GET /metrics/prom", d.fleetProm)
	mux.HandleFunc("GET /fleet/delinquent", d.fleetDelinquent)
	mux.HandleFunc("GET /fleet/phases", d.fleetPhases)
	return mux
}

func (d *Daemon) index(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `umid — multi-session UMI profiling daemon

POST   /sessions             create a session (SessionConfig JSON)
GET    /sessions             list sessions
POST   /sessions/{id}/run    run to completion, returns the result
POST   /sessions/{id}/ingest replay a umi-profile/v1|v2 stream (?live=1 to tail)
GET    /sessions/{id}/report completed run result
GET    /sessions/{id}/history  profile-history windows
GET    /sessions/{id}/metrics  self-observability snapshot
DELETE /sessions/{id}        remove a session
GET    /metrics/prom         fleet Prometheus exposition
GET    /fleet/delinquent     delinquent-set union/intersection
GET    /fleet/phases         phase-change correlation
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

	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	if len(d.sessions) >= d.cfg.MaxSessions {
		d.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "session limit %d reached", d.cfg.MaxSessions)
		return
	}
	d.nextID++
	s := &session{id: fmt.Sprintf("s%d", d.nextID), seq: d.nextID, cfg: cfg, state: stateCreated}
	d.sessions[s.id] = s
	d.mu.Unlock()

	// The Content-Type must be set before WriteHeader commits the response
	// head; writeJSON's own Set would land too late to be sent.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, s.info())
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

	// Admission: refuse while draining, and shed load past the shared
	// queue's high-water mark rather than deepening the backlog.
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	high := d.cfg.QueueHighWater
	if high <= 0 {
		high = d.shared.QueueBound()
	}
	if depth := d.shared.QueueDepth(); depth >= high {
		d.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "analyzer queue depth %d at high-water %d", depth, high)
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
	res, err := runSession(&s.cfg, d.shared, func(sys *umi.System) {
		s.mu.Lock()
		s.sys = sys
		s.mu.Unlock()
	}, nil)

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

func (d *Daemon) sessionReport(w http.ResponseWriter, r *http.Request) {
	s, ok := d.lookup(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
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

func (d *Daemon) sessionHistory(w http.ResponseWriter, r *http.Request) {
	s, ok := d.lookup(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, s.liveHistory())
}

func (d *Daemon) sessionMetrics(w http.ResponseWriter, r *http.Request) {
	s, ok := d.lookup(r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, s.liveMetrics())
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
	// A run still executing holds its own reference and completes against
	// the shared pool; its result is simply unreachable. Accounting is
	// exact the moment the delete returns.
	if rp := s.release(); rp != nil {
		rp.Close()
	}
	w.WriteHeader(http.StatusNoContent)
}

// fleetProm renders every session's registry as one labeled exposition,
// plus the daemon's own ingest counters under the reserved label
// "ingest".
func (d *Daemon) fleetProm(w http.ResponseWriter, r *http.Request) {
	sessions := d.snapshotSessions()
	labeled := make([]metrics.LabeledSnapshot, 0, len(sessions)+1)
	labeled = append(labeled, metrics.LabeledSnapshot{Label: "ingest", Snap: d.ingest.reg.Snapshot()})
	for _, s := range sessions {
		labeled = append(labeled, metrics.LabeledSnapshot{Label: s.id, Snap: s.liveMetrics()})
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	metrics.WritePrometheusFleet(w, labeled)
	ovh := make([]umi.LabeledOverhead, 0, len(sessions))
	for _, s := range sessions {
		if rep := s.liveOverhead(); rep != nil {
			ovh = append(ovh, umi.LabeledOverhead{Label: s.id, Report: rep})
		}
	}
	umi.WriteOverheadPromFleet(w, ovh)
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

// Serve starts the daemon's HTTP surface on addr; same contract as
// Server.Serve. The stop function shuts the listener down but does not
// drain the daemon — call Shutdown for that.
func (d *Daemon) Serve(addr string) (string, func(), error) {
	return serveHandler(addr, d.Handler())
}
