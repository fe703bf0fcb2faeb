// Live stream tailing: the client half of `umiprof -emit-live`. A
// LiveShipper owns one ingest session on a umid daemon and ships the
// telemetry stream to it while the guest is still running, one wire frame
// at a time over a single chunked POST /sessions/{id}/ingest?live=1 — the
// daemon analyzes frames as they arrive.
//
// Flow control is a bounded window of in-flight frames: the capture side
// blocks in the encoder's frame hook when the window is full (the
// producer backs off; frames are never dropped). Every shipped byte is
// also spooled, so when the connection dies the shipper re-POSTs the
// whole stream — the daemon, holding the session resumable at the last
// applied invocation boundary, skip-verifies the prefix by rolling
// checksum and applies only what it has not seen.
package introspect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// liveWindow bounds the completed frames a LiveShipper holds for its
// sender, not yet on the wire; the producer blocks past it.
const liveWindow = 64

// LiveConfig sizes a LiveShipper's retries.
type LiveConfig struct {
	// MaxAttempts bounds connection attempts (first try included).
	// Default 5.
	MaxAttempts int
	// RetryDelay spaces reconnect attempts and session-state polls.
	// Default 200ms.
	RetryDelay time.Duration
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 200 * time.Millisecond
	}
	return c
}

// LiveShipper streams one wire-encoded telemetry stream into a daemon
// ingest session as it is produced. Use it as the encoder's destination
// writer and install FrameEnd as the encoder's frame hook; Close after
// the encoder's final Flush returns the daemon's merged RunResult and
// deletes the session.
type LiveShipper struct {
	base   string
	id     string
	cfg    LiveConfig
	client *http.Client

	pend   []byte      // bytes of the frame being encoded
	window chan []byte // completed frames awaiting the wire
	closed bool        // window closed (producer side)

	done chan struct{} // sender exited

	mu     sync.Mutex
	result *RunResult
	err    error
}

// CreateIngestSession creates an ingest session on the daemon at base (a
// URL or host:port): the client step a LiveShipper and `umiprof
// -ingest-addr` share. It returns base as a URL, which DeleteSession and
// the session's routes take, and the session's id.
func CreateIngestSession(base string) (baseURL, id string, err error) {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(`{"ingest": true}`))
	if err != nil {
		return "", "", fmt.Errorf("create session: %w", err)
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != http.StatusCreated {
		return "", "", fmt.Errorf("create session: status %d, body %s", resp.StatusCode, body)
	}
	var inf struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &inf); err != nil || inf.ID == "" {
		return "", "", fmt.Errorf("create session: bad response %s", body)
	}
	return base, inf.ID, nil
}

// DeleteSession deletes session id on the daemon at base, a URL as
// CreateIngestSession returns it.
func DeleteSession(base, id string) error {
	req, err := http.NewRequest(http.MethodDelete, base+"/sessions/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// NewLiveShipper creates an ingest session on the daemon at base (a URL
// or host:port) and starts the sender. The returned shipper is ready to
// be written to.
func NewLiveShipper(base string, cfg LiveConfig) (*LiveShipper, error) {
	base, id, err := CreateIngestSession(base)
	if err != nil {
		return nil, err
	}
	s := &LiveShipper{
		base:   base,
		id:     id,
		cfg:    cfg.withDefaults(),
		client: &http.Client{},
		done:   make(chan struct{}),
		window: make(chan []byte, liveWindow),
	}
	go s.run()
	return s, nil
}

// SessionID names the daemon session this shipper streams into.
func (s *LiveShipper) SessionID() string { return s.id }

// Write accumulates encoder output for the frame currently being encoded.
// Never fails: transport trouble is absorbed by the retry loop and
// surfaced at Close.
func (s *LiveShipper) Write(p []byte) (int, error) {
	s.pend = append(s.pend, p...)
	return len(p), nil
}

// FrameEnd marks a frame boundary (install as wire.Encoder.SetFrameHook).
// It hands the completed frame to the sender, blocking while the
// flow-control window is full — the producer backs off instead of
// dropping or buffering unboundedly.
func (s *LiveShipper) FrameEnd() {
	if len(s.pend) == 0 {
		return
	}
	frame := make([]byte, len(s.pend))
	copy(frame, s.pend)
	s.pend = s.pend[:0]
	s.window <- frame
}

// Close signals end of stream, waits for the daemon to acknowledge the
// complete upload, and returns its merged RunResult. Once the outcome is
// in, on success and failure alike, it deletes the session, so a
// live-tailed run never keeps one of the daemon's session slots; a failed
// DELETE leaves the outcome as it was. Call after the encoder's final
// Flush.
func (s *LiveShipper) Close() (*RunResult, error) {
	if !s.closed {
		s.closed = true
		close(s.window)
		<-s.done
		_ = DeleteSession(s.base, s.id) // a failed DELETE leaves the outcome as it was
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result, s.err
}

// run is the sender: it drives POST attempts until the stream is fully
// acknowledged or retries are exhausted. All window consumption happens
// here, so frame order and the spool are trivially consistent.
func (s *LiveShipper) run() {
	defer close(s.done)
	var spool []byte    // every frame handed to any attempt, in order
	streamDone := false // producer closed the window and spool holds it all
	for attempt := 1; ; attempt++ {
		res, err := s.attempt(&spool, &streamDone)
		if err == nil {
			s.finish(res, nil)
			return
		}
		if attempt >= s.cfg.MaxAttempts {
			s.finish(nil, fmt.Errorf("live ingest: %w (after %d attempts)", err, attempt))
			return
		}
		// Wait for the daemon to notice the cut and park the session
		// resumable (or discover it actually completed).
		res, retry, werr := s.awaitResumable()
		if res != nil {
			s.finish(res, nil)
			return
		}
		if !retry {
			s.finish(nil, fmt.Errorf("live ingest: %w", werr))
			return
		}
	}
}

// finish publishes the outcome and keeps draining the window so a
// producer blocked in FrameEnd always gets unstuck.
func (s *LiveShipper) finish(res *RunResult, err error) {
	s.mu.Lock()
	s.result, s.err = res, err
	s.mu.Unlock()
	for range s.window {
	}
}

// attempt runs one POST: the spool so far (a resume re-send, empty on the
// first try), then live frames off the window. A nil error means the
// daemon acknowledged the complete stream with a result.
func (s *LiveShipper) attempt(spool *[]byte, streamDone *bool) (*RunResult, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, s.base+"/sessions/"+s.id+"/ingest?live=1", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	type outcome struct {
		resp *http.Response
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, err := s.client.Do(req)
		ch <- outcome{resp, err}
		if err == nil {
			return
		}
		// A failed Do may leave the feeder blocked in pw.Write; unblock it.
		pr.CloseWithError(err)
	}()

	// Feed: spooled bytes first, then live frames. A frame is spooled
	// before it is written, so an attempt that dies mid-write still
	// covers that frame on the next re-send.
	_, werr := pw.Write(*spool)
	if werr == nil && !*streamDone {
		for frame := range s.window {
			*spool = append(*spool, frame...)
			if _, werr = pw.Write(frame); werr != nil {
				break
			}
		}
		if werr == nil {
			*streamDone = true
		}
	}
	pw.Close()

	out := <-ch
	if out.err != nil {
		return nil, out.err
	}
	defer out.resp.Body.Close()
	body, rerr := io.ReadAll(out.resp.Body)
	if rerr != nil {
		return nil, rerr
	}
	if out.resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", out.resp.StatusCode, bytes.TrimSpace(body))
	}
	var res RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("bad result: %w", err)
	}
	return &res, nil
}

// awaitResumable polls the session until it is safe to re-send: resumable
// or created means retry; done means the daemon actually got everything
// (the cut hit the response, not the upload) and its report is fetched;
// failed is fatal.
func (s *LiveShipper) awaitResumable() (*RunResult, bool, error) {
	deadline := time.Now().Add(time.Duration(s.cfg.MaxAttempts) * 10 * s.cfg.RetryDelay)
	for {
		time.Sleep(s.cfg.RetryDelay)
		state, err := s.sessionState()
		if err != nil {
			if time.Now().After(deadline) {
				return nil, false, err
			}
			continue
		}
		switch state {
		case "resumable", "created", "done":
			if state == "done" {
				res, err := s.fetchReport()
				return res, false, err
			}
			return nil, true, nil
		case "failed":
			return nil, false, fmt.Errorf("session %s poisoned", s.id)
		}
		if time.Now().After(deadline) {
			return nil, false, fmt.Errorf("session %s still %s", s.id, state)
		}
	}
}

// sessionState looks this shipper's session up in the daemon listing.
func (s *LiveShipper) sessionState() (string, error) {
	resp, err := s.client.Get(s.base + "/sessions")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var infos []struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return "", err
	}
	for _, inf := range infos {
		if inf.ID == s.id {
			return inf.State, nil
		}
	}
	return "", fmt.Errorf("session %s not found", s.id)
}

func (s *LiveShipper) fetchReport() (*RunResult, error) {
	resp, err := s.client.Get(s.base + "/sessions/" + s.id + "/report")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var res RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
