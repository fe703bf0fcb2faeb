package introspect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- helpers ---

// startDaemon boots a daemon on an ephemeral port and returns it with its
// base URL. The listener stops and the daemon drains at cleanup.
func startDaemon(t *testing.T, cfg DaemonConfig) (*Daemon, string) {
	t.Helper()
	d := NewDaemon(cfg)
	addr, stop, err := d.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() {
		stop()
		d.Shutdown()
	})
	return d, "http://" + addr
}

// doReq performs one request and returns status + body.
func doReq(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s read: %v", method, url, err)
	}
	return resp.StatusCode, data
}

// createSession posts cfg and returns the new session id.
func createSession(t *testing.T, base string, cfg SessionConfig) string {
	t.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, data := doReq(t, http.MethodPost, base+"/sessions", body)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", code, data)
	}
	var inf sessionInfo
	if err := json.Unmarshal(data, &inf); err != nil {
		t.Fatalf("create response: %v", err)
	}
	return inf.ID
}

// traceSessionConfig builds a deterministic submitted-trace config for
// signature sig: a strided walk with an LCG-scattered minority so stride
// discovery and the logical cache both see structure that differs per
// signature.
func traceSessionConfig(sig, workers int) SessionConfig {
	const n = 512
	addrs := make([]uint64, n)
	lcg := uint64(2*sig + 1)
	stride := uint64(64 + 64*sig)
	for i := range addrs {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		if i%7 == 3 {
			// scattered minority: irregular lines in a 4 MiB window
			addrs[i] = 0x2000_0000 + (lcg % (1 << 22) &^ 7)
		} else {
			addrs[i] = 0x2000_0000 + uint64(i)*stride
		}
	}
	return SessionConfig{
		Trace:     addrs,
		Reps:      192,
		Workers:   workers,
		MaxInstrs: 2_000_000,
	}
}

// resultBytes marshals a RunResult exactly as the daemon's HTTP layer
// does, so standalone baselines compare byte-for-byte against bodies.
func resultBytes(t *testing.T, res *RunResult) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// --- the load-bearing invariant ---

// TestDaemonSessionEquivalence is the daemon's contract: a session run
// through the daemon produces byte-identical output to the same config
// run standalone, with any number of co-tenant sessions running
// concurrently. The baseline is the workers=0 standalone run, so the
// comparison also proves end to end through the HTTP surface that the
// session's workers key, accepted and ignored, changes nothing.
func TestDaemonSessionEquivalence(t *testing.T) {
	const signatures = 4
	baseline := make([][]byte, signatures)
	for sig := range baseline {
		res, err := RunStandalone(traceSessionConfig(sig, 0))
		if err != nil {
			t.Fatalf("baseline sig %d: %v", sig, err)
		}
		baseline[sig] = resultBytes(t, res)
	}

	for _, sessions := range []int{1, 4, 16} {
		for _, workers := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("sessions=%d/workers=%d", sessions, workers), func(t *testing.T) {
				d, base := startDaemon(t, DaemonConfig{MaxSessions: sessions})
				var wg sync.WaitGroup
				errs := make(chan error, sessions)
				for i := 0; i < sessions; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						sig := i % signatures
						id := createSession(t, base, traceSessionConfig(sig, workers))
						code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil)
						if code != http.StatusOK {
							errs <- fmt.Errorf("session %s run: status %d, body %.200s", id, code, body)
							return
						}
						if !bytes.Equal(body, baseline[sig]) {
							errs <- fmt.Errorf("session %s (sig %d) run body differs from standalone baseline", id, sig)
							return
						}
						// The report endpoint must serve the identical bytes.
						code, rep := doReq(t, http.MethodGet, base+"/sessions/"+id+"/report", nil)
						if code != http.StatusOK || !bytes.Equal(rep, baseline[sig]) {
							errs <- fmt.Errorf("session %s report: status %d or bytes differ", id, code)
						}
					}(i)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
				if got := d.SessionCount(); got != sessions {
					t.Errorf("SessionCount = %d, want %d", got, sessions)
				}
			})
		}
	}
}

// --- lifecycle, admission, accounting ---

// tinyConfig is a fast-running config for lifecycle tests.
func tinyConfig(workers int) SessionConfig {
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = 0x2000_0000 + uint64(i)*128
	}
	return SessionConfig{Trace: addrs, Reps: 16, Workers: workers, MaxInstrs: 200_000}
}

func TestDaemonLifecycle(t *testing.T) {
	d, base := startDaemon(t, DaemonConfig{MaxSessions: 4})

	// Unknown session: every per-session route 404s.
	probes := []struct{ method, path string }{
		{http.MethodPost, "/sessions/nope/run"},
		{http.MethodPost, "/sessions/nope/ingest"},
		{http.MethodDelete, "/sessions/nope"},
	}
	for _, v := range sessionViews {
		probes = append(probes, struct{ method, path string }{http.MethodGet, "/sessions/nope/" + v})
	}
	for _, probe := range probes {
		if code, _ := doReq(t, probe.method, base+probe.path, nil); code != http.StatusNotFound {
			t.Errorf("%s %s on unknown id: status %d, want 404", probe.method, probe.path, code)
		}
	}

	id := createSession(t, base, tinyConfig(2))

	// Report before run: 409, not an empty payload.
	if code, _ := doReq(t, http.MethodGet, base+"/sessions/"+id+"/report", nil); code != http.StatusConflict {
		t.Errorf("report before run: status %d, want 409", code)
	}

	if code, body := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil); code != http.StatusOK {
		t.Fatalf("run: status %d, body %s", code, body)
	}

	// Second run: the state machine forbids it.
	if code, _ := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil); code != http.StatusConflict {
		t.Errorf("second run: status %d, want 409", code)
	}

	// History and metrics serve the finished session's state.
	code, hist := doReq(t, http.MethodGet, base+"/sessions/"+id+"/history", nil)
	if code != http.StatusOK || !strings.Contains(string(hist), "umi-history/v1") {
		t.Errorf("history: status %d, body %.100s", code, hist)
	}
	if code, _ := doReq(t, http.MethodGet, base+"/sessions/"+id+"/metrics", nil); code != http.StatusOK {
		t.Errorf("metrics: status %d", code)
	}
	// A daemon-run session records its events into a fixed-size ring.
	var ev struct {
		Total  uint64
		Cap    int
		Events []map[string]any
	}
	if _, body := doReq(t, http.MethodGet, base+"/sessions/"+id+"/events", nil); json.Unmarshal(body, &ev) != nil ||
		ev.Cap != sessionEvents || ev.Total == 0 || len(ev.Events) == 0 {
		t.Errorf("events: cap %d total %d events %d, want a %d-event ring holding the run's events",
			ev.Cap, ev.Total, len(ev.Events), sessionEvents)
	}

	// Fleet exposition carries the session label.
	code, prom := doReq(t, http.MethodGet, base+"/metrics/prom", nil)
	if code != http.StatusOK || !strings.Contains(string(prom), `session="`+id+`"`) {
		t.Errorf("fleet prom: status %d, missing session label; body %.200s", code, prom)
	}

	if code, _ := doReq(t, http.MethodDelete, base+"/sessions/"+id, nil); code != http.StatusNoContent {
		t.Errorf("delete: unexpected status %d", code)
	}
	if got := d.SessionCount(); got != 0 {
		t.Errorf("SessionCount after delete = %d, want 0", got)
	}
	// Double delete: gone means gone.
	if code, _ := doReq(t, http.MethodDelete, base+"/sessions/"+id, nil); code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", code)
	}
}

func TestDaemonAdmission(t *testing.T) {
	d, base := startDaemon(t, DaemonConfig{MaxSessions: 2})

	a := createSession(t, base, tinyConfig(0))
	createSession(t, base, tinyConfig(0))

	// Past MaxSessions: reject with 429, count unchanged.
	body, _ := json.Marshal(tinyConfig(0))
	code, msg := doReq(t, http.MethodPost, base+"/sessions", body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("create past limit: status %d (%s), want 429", code, msg)
	}
	if got := d.SessionCount(); got != 2 {
		t.Errorf("SessionCount = %d after rejected create, want 2", got)
	}

	// Deleting frees a slot.
	doReq(t, http.MethodDelete, base+"/sessions/"+a, nil)
	createSession(t, base, tinyConfig(0))
	if got := d.SessionCount(); got != 2 {
		t.Errorf("SessionCount = %d after delete+create, want 2", got)
	}

	// Malformed configs are 400, never sessions.
	for _, bad := range []string{
		`{"workload":"no-such-workload"}`,
		`{"trace":[1,2],"workload":"art"}`,
		`{"trace":[1],"workers":-1}`,
		`{"unknown_knob":true,"trace":[1]}`,
		`{"trace":[1]} trailing`,
		`not json`,
		`{}`,
	} {
		if code, _ := doReq(t, http.MethodPost, base+"/sessions", []byte(bad)); code != http.StatusBadRequest {
			t.Errorf("create %q: status %d, want 400", bad, code)
		}
	}
}

// TestDaemonGracefulDrain: Shutdown must refuse new work with 503 but let
// the in-flight run finish — never kill it, never deadlock.
func TestDaemonGracefulDrain(t *testing.T) {
	d, base := startDaemon(t, DaemonConfig{MaxSessions: 4})
	id := createSession(t, base, traceSessionConfig(0, 2))

	runDone := make(chan int, 1)
	go func() {
		code, _ := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil)
		runDone <- code
	}()
	// Wait until the run is admitted (state leaves "created").
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, ok := d.lookup(id)
		if !ok {
			t.Fatal("session vanished")
		}
		s.mu.Lock()
		st := s.state
		s.mu.Unlock()
		if st != stateCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() { d.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not complete")
	}
	// The in-flight run finished successfully rather than being dropped.
	select {
	case code := <-runDone:
		if code != http.StatusOK {
			t.Errorf("in-flight run finished with status %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run handler never returned after drain")
	}

	// Draining daemon refuses mutations.
	body, _ := json.Marshal(tinyConfig(0))
	if code, _ := doReq(t, http.MethodPost, base+"/sessions", body); code != http.StatusServiceUnavailable {
		t.Errorf("create while draining: status %d, want 503", code)
	}
	id2 := createSessionDirect(t, d) // registry path, bypassing admission
	if code, _ := doReq(t, http.MethodPost, base+"/sessions/"+id2+"/run", nil); code != http.StatusServiceUnavailable {
		t.Errorf("run while draining: status %d, want 503", code)
	}
	// Reads still work during/after drain.
	if code, _ := doReq(t, http.MethodGet, base+"/sessions", nil); code != http.StatusOK {
		t.Errorf("list while draining: status %d, want 200", code)
	}
	d.Shutdown() // idempotent
}

// createSessionDirect registers a session through the internal registry,
// for tests that need one despite admission control.
func createSessionDirect(t *testing.T, d *Daemon) string {
	t.Helper()
	cfg := tinyConfig(0)
	d.mu.Lock()
	d.nextID++
	s := &session{id: fmt.Sprintf("s%d", d.nextID), seq: d.nextID, cfg: cfg, state: stateCreated}
	d.sessions[s.id] = s
	d.mu.Unlock()
	return s.id
}

// --- churn stress ---

// TestDaemonChurnStress hammers the control plane from many goroutines
// with a randomized create/run/scrape/delete mix (seeded, so failures
// reproduce), then checks exact accounting and a clean drain. Run under
// -race this is the daemon's data-race net.
func TestDaemonChurnStress(t *testing.T) {
	const (
		actors        = 8
		opsPerActor   = 12
		maxConcurrent = actors * 4
	)
	d, base := startDaemon(t, DaemonConfig{MaxSessions: maxConcurrent})

	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + a)))
			var mine []string
			for op := 0; op < opsPerActor; op++ {
				switch rng.Intn(5) {
				case 0, 1: // create
					cfg := tinyConfig(rng.Intn(3))
					body, _ := json.Marshal(cfg)
					code, data := doReq(t, http.MethodPost, base+"/sessions", body)
					if code == http.StatusCreated {
						var inf sessionInfo
						json.Unmarshal(data, &inf)
						mine = append(mine, inf.ID)
					} else if code != http.StatusTooManyRequests {
						t.Errorf("actor %d create: status %d", a, code)
					}
				case 2: // run one of mine
					if len(mine) > 0 {
						id := mine[rng.Intn(len(mine))]
						code, _ := doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil)
						switch code {
						case http.StatusOK, http.StatusConflict, http.StatusNotFound:
						default:
							t.Errorf("actor %d run %s: status %d", a, id, code)
						}
					}
				case 3: // scrape
					paths := []string{"/sessions", "/metrics/prom", "/fleet/delinquent", "/fleet/phases"}
					if len(mine) > 0 {
						id := mine[rng.Intn(len(mine))]
						paths = append(paths, "/sessions/"+id+"/history", "/sessions/"+id+"/metrics")
					}
					p := paths[rng.Intn(len(paths))]
					if code, _ := doReq(t, http.MethodGet, base+p, nil); code != http.StatusOK && code != http.StatusNotFound {
						t.Errorf("actor %d GET %s: status %d", a, p, code)
					}
				case 4: // delete one of mine
					if len(mine) > 0 {
						i := rng.Intn(len(mine))
						id := mine[i]
						mine = append(mine[:i], mine[i+1:]...)
						if code, _ := doReq(t, http.MethodDelete, base+"/sessions/"+id, nil); code != http.StatusNoContent {
							t.Errorf("actor %d delete %s: status %d", a, id, code)
						}
					}
				}
			}
			// Tear down everything this actor still owns.
			for _, id := range mine {
				if code, _ := doReq(t, http.MethodDelete, base+"/sessions/"+id, nil); code != http.StatusNoContent {
					t.Errorf("actor %d final delete %s: status %d", a, id, code)
				}
			}
		}(a)
	}
	wg.Wait()

	// Every actor deleted its sessions: accounting must be exactly zero.
	if got := d.SessionCount(); got != 0 {
		t.Errorf("SessionCount after churn = %d, want 0", got)
	}
	// And the drain must complete promptly with nothing in flight.
	done := make(chan struct{})
	go func() { d.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hung after churn")
	}
}

// sessionViews is every GET view a session answers under /sessions/{id}/.
var sessionViews = []string{"report", "metrics", "metrics/delta", "history", "overhead",
	"events", "events/timeline", "events/trace"}

// TestDaemonScrapeDuringDelete is the swap-safety regression at the
// daemon level: observers scraping every view of a session while it runs
// and is deleted (and its id reused by a successor) must see complete
// responses — 200 (or the report's 409 before the run is done) from
// before the delete, 404 after — never a torn state. Run under -race.
func TestDaemonScrapeDuringDelete(t *testing.T) {
	const rounds = 20
	_, base := startDaemon(t, DaemonConfig{MaxSessions: 8})

	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapeWG.Add(1)
		go func(g int) {
			defer scrapeWG.Done()
			i := g
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				id := fmt.Sprintf("s%d", 1+i%rounds)
				i++
				for _, v := range sessionViews {
					code, _ := doReq(t, http.MethodGet, base+"/sessions/"+id+"/"+v, nil)
					if code != http.StatusOK && code != http.StatusNotFound &&
						(v != "report" || code != http.StatusConflict) {
						t.Errorf("scrape %s/%s: status %d", id, v, code)
					}
				}
			}
		}(g)
	}
	for i := 0; i < rounds; i++ {
		id := createSession(t, base, tinyConfig(0))
		doReq(t, http.MethodPost, base+"/sessions/"+id+"/run", nil)
		doReq(t, http.MethodDelete, base+"/sessions/"+id, nil)
	}
	close(stopScrape)
	scrapeWG.Wait()
}
