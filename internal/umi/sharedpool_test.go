package umi

import (
	"sync"
	"testing"
	"time"

	"umi/internal/cache"
	"umi/internal/program"
	"umi/internal/rio"
	"umi/internal/tracelog"
	"umi/internal/vm"
)

// TestSharedPrepEquivalence is the multi-tenant form of the pipeline's
// core contract: a session whose preparation runs on a shared pool — of
// any width — produces the report the inline analyzer produces, down to
// the modelled cycle totals.
func TestSharedPrepEquivalence(t *testing.T) {
	progs := map[string]func() *program.Program{
		"stride":    func() *program.Program { return strideWorkload(t, 400_000) },
		"manyloops": func() *program.Program { return manyLoopsWorkload(t, 8, 30_000) },
	}
	for name, build := range progs {
		want := func() string {
			cfg := testConfig()
			cfg.AnalyzerWorkers = 0
			s, rt := runUMI(t, build(), cfg)
			return systemKey(s, rt)
		}()
		for _, width := range []int{1, 2, 4} {
			shared := NewSharedPrep(width, 0)
			cfg := testConfig()
			cfg.AnalyzerWorkers = 4
			cfg.SharedPrep = shared
			s, rt := runUMI(t, build(), cfg)
			got := systemKey(s, rt)
			shared.Close()
			if got != want {
				t.Errorf("%s: shared width=%d differs from inline:\n  got  %s\n  want %s",
					name, width, got, want)
			}
		}
	}
}

// sessionProg varies the guest per session slot so co-tenants stress the
// shared pool with heterogeneous job shapes.
func sessionProg(t *testing.T, i int) *program.Program {
	t.Helper()
	if i%2 == 0 {
		return strideWorkload(t, 200_000+int64(i)*10_000)
	}
	return manyLoopsWorkload(t, 4+i%4, 20_000)
}

// TestSharedPrepConcurrentSessions runs many sessions concurrently over
// one shared pool and checks each against its solo baseline: co-tenancy
// must not leak state across sessions or perturb any report.
func TestSharedPrepConcurrentSessions(t *testing.T) {
	const sessions = 8
	baselines := make([]string, sessions)
	for i := range baselines {
		cfg := testConfig()
		cfg.AnalyzerWorkers = 0
		s, rt := runUMI(t, sessionProg(t, i), cfg)
		baselines[i] = systemKey(s, rt)
	}

	shared := NewSharedPrep(4, 64)
	defer shared.Close()
	got := make([]string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := testConfig()
			cfg.AnalyzerWorkers = 4
			cfg.SharedPrep = shared
			s, rt := runUMI(t, sessionProg(t, i), cfg)
			got[i] = systemKey(s, rt)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != baselines[i] {
			t.Errorf("session %d under co-tenant load differs from solo run:\n  got  %s\n  want %s",
				i, got[i], baselines[i])
		}
	}
	if d := shared.QueueDepth(); d != 0 {
		t.Errorf("QueueDepth = %d after all sessions drained, want 0", d)
	}
}

// TestSharedPrepFairness pins the scheduling invariant that makes one hot
// session unable to starve others: workers drain lanes round-robin, one
// job per visit, so a lane with one pending job is served within one
// round of the flooding lane's backlog — never behind it.
func TestSharedPrepFairness(t *testing.T) {
	// Build the pool without workers so the drain order is observable
	// deterministically through the scheduler itself.
	p := &SharedPrep{maxQueue: 1024, workers: 0}
	p.cond = sync.NewCond(&p.mu)
	mkPool := func() *analyzerPool {
		return &analyzerPool{met: newMetrics(), prepBufs: make(chan *prepBuf, 4)}
	}
	hot, small := mkPool(), mkPool()
	hotLane, smallLane := p.register(hot), p.register(small)

	mkJob := func() *analysisJob {
		return &analysisJob{
			profile: NewAddressProfile([]uint64{0x400000}, []bool{true}, 2),
			alpha:   0.5, ready: make(chan struct{}),
		}
	}
	const flood = 100
	for i := 0; i < flood; i++ {
		p.enqueue(hotLane, mkJob())
	}
	p.enqueue(smallLane, mkJob())

	// Drain exactly as a worker would and record which lane each pop
	// serves. The small lane's single job must surface within the first
	// round — at most one flooder job ahead of it.
	var order []string
	for {
		p.mu.Lock()
		job, lane := p.next()
		if job != nil {
			p.queued--
		}
		p.mu.Unlock()
		if job == nil {
			break
		}
		switch lane {
		case hotLane:
			order = append(order, "hot")
		case smallLane:
			order = append(order, "small")
		}
		lane.owner.prepareJob(job)
	}
	if len(order) != flood+1 {
		t.Fatalf("drained %d jobs, want %d", len(order), flood+1)
	}
	pos := -1
	for i, who := range order {
		if who == "small" {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 1 {
		t.Errorf("small session's job served at position %d, want within the first round (0 or 1); order prefix %v",
			pos, order[:min(len(order), 4)])
	}
}

// TestSharedPrepClosedEnqueue: a job enqueued after Close must still
// complete (inline, on the enqueuer) so no sequencer can hang on a ready
// channel that nobody will close.
func TestSharedPrepClosedEnqueue(t *testing.T) {
	p := NewSharedPrep(1, 4)
	ap := &analyzerPool{met: newMetrics(), prepBufs: make(chan *prepBuf, 2)}
	lane := p.register(ap)
	p.Close()
	job := &analysisJob{
		profile: NewAddressProfile([]uint64{0x400000}, []bool{true}, 2),
		alpha:   0.5, ready: make(chan struct{}),
	}
	p.enqueue(lane, job)
	select {
	case <-job.ready:
	default:
		t.Fatal("job enqueued after Close never became ready")
	}
	if job.prep == nil {
		t.Error("closed-pool enqueue did not prepare the job")
	}
}

// TestSharedPrepUnregisterMidFleet: removing a middle lane must keep the
// round-robin cursor valid and the remaining lanes serviceable.
func TestSharedPrepUnregisterMidFleet(t *testing.T) {
	p := &SharedPrep{maxQueue: 16, workers: 0}
	p.cond = sync.NewCond(&p.mu)
	mkPool := func() *analyzerPool {
		return &analyzerPool{met: newMetrics(), prepBufs: make(chan *prepBuf, 2)}
	}
	lanes := make([]*prepLane, 3)
	for i := range lanes {
		lanes[i] = p.register(mkPool())
	}
	// Advance the cursor past lane 1, then remove lane 1.
	p.rr = 2
	p.unregister(lanes[1])
	if len(p.lanes) != 2 {
		t.Fatalf("lanes = %d after unregister, want 2", len(p.lanes))
	}
	if p.rr != 1 {
		t.Errorf("rr = %d after removing a lane below the cursor, want 1", p.rr)
	}
	// The remaining lanes still round-robin.
	job := &analysisJob{
		profile: NewAddressProfile([]uint64{0x400000}, []bool{true}, 2),
		alpha:   0.5, ready: make(chan struct{}),
	}
	p.enqueue(lanes[2], job)
	p.mu.Lock()
	got, lane := p.next()
	p.mu.Unlock()
	if got == nil || lane != lanes[2] {
		t.Error("next() failed to find the surviving lane's job")
	}
}

// TestPipelineSubmitQueueDepth pins the pipeline.submit event's prep-queue
// reading (Arg2) to the QueueDepth reading the PrepQueue gauge records. The
// session's SharedPrep starts with its worker held back, and the worker is
// released only once the first submit is logged, so every job of that
// invocation is still queued: Arg2 must equal the event's job count (Arg1),
// and so must the gauge. The queue bound is that job count, so the next
// submit blocks until the release and cannot move the gauge first.
func TestPipelineSubmitQueueDepth(t *testing.T) {
	// The global trace-profile trigger hands off several traces at once:
	// six jobs in the first invocation.
	prog := manyLoopsWorkload(t, 20, 400)
	firstSubmit := func(l *tracelog.Log) (tracelog.Event, bool) {
		for _, e := range l.Events() {
			if e.Type == tracelog.EvPipelineSubmit {
				return e, true
			}
		}
		return tracelog.Event{}, false
	}

	cfg := testConfig()
	cfg.UseSampling = false
	cfg.AddressProfileRows = 1 << 14
	cfg.TraceProfileLen = 2048
	cfg.AnalyzerWorkers = 4
	_, _, probe := runUMITraced(t, prog, cfg, 1<<16)
	e, ok := firstSubmit(probe)
	if !ok || e.Arg1 < 2 {
		t.Fatalf("probe run must hand off several jobs at once (found %v, %+v)", ok, e)
	}
	jobs := int(e.Arg1)

	held := &SharedPrep{workers: 1, maxQueue: jobs}
	held.cond = sync.NewCond(&held.mu)
	cfg.SharedPrep = held
	rt := rio.NewRuntime(vm.New(prog, cache.NewP4(false)))
	s := Attach(rt, cfg)
	l := s.EnableEventTrace(1 << 16)

	type reading struct {
		ev    tracelog.Event
		gauge int64
		ok    bool
	}
	got := make(chan reading, 1)
	go func() {
		var r reading
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
			if r.ev, r.ok = firstSubmit(l); r.ok {
				r.gauge = s.met.PrepQueue.Load()
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		// Release the worker either way, so a run that never logs a
		// submit still finishes.
		held.wg.Add(1)
		go held.worker()
		got <- r
	}()
	if err := rt.Run(50_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s.Finish()
	held.Close()
	r := <-got
	if !r.ok {
		t.Fatal("no pipeline.submit event logged")
	}
	if r.ev.Arg1 != uint64(jobs) {
		t.Fatalf("first submit carries %d jobs, probe run %d", r.ev.Arg1, jobs)
	}
	if r.ev.Arg2 != r.ev.Arg1 {
		t.Errorf("pipeline.submit prep queue = %d with all %d jobs queued", r.ev.Arg2, r.ev.Arg1)
	}
	if r.gauge != int64(r.ev.Arg1) {
		t.Errorf("PrepQueue gauge = %d with all %d jobs queued", r.gauge, r.ev.Arg1)
	}
}
