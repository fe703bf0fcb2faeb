package vm

// The reference queue decouples the memory model from the interpreter.
// Exec never calls the model: each load, store, non-temporal access,
// software prefetch and (with an instruction cache attached) instruction
// fetch appends one record, and apply replays records into the model in
// the order Exec queued them. Outside a run the queue is applied when Exec
// returns. Inside one (Drive, which Run and the rio runtime use) full
// batches go to a worker goroutine, so the hierarchy runs beside the
// interpreter the way hardware caches run beside a processor; Sync brings
// the clock and the model up to date whenever a reader needs them.
//
// The model's state depends only on the ordered record stream, and a
// record's stall is only ever summed into Cycles, so neither the model's
// statistics nor Cycles at a sync point depend on where or when the
// records were applied.

// refKind is what one queued record asks of the model.
type refKind uint8

const (
	refLoad refKind = iota
	refStore
	refLoadNT  // through NTModel
	refStoreNT // through NTModel
	refPrefetch
	refFetch
	// refFetchFaulted is the fetch of an instruction that faulted: the
	// model sees it, but like the rest of the instruction's cost its stall
	// is not charged.
	refFetchFaulted
)

// ref is one queued model operation: 16 bytes. addr is the PC for
// fetches.
type ref struct {
	addr uint64
	size uint8
	kind refKind
}

const (
	// batchLen is the records per batch, the unit of hand-off to the
	// worker.
	batchLen = 2048
	// maxBatches is how many batches a machine allocates: one with the
	// machine, the rest when its first run starts the worker. When all
	// but the one being filled are with the worker, the interpreter waits
	// for the worker to return one.
	maxBatches = 4
)

type batch struct {
	recs  [batchLen]ref
	n     int
	stall uint64 // filled in by the worker
}

// refQueue is the machine's side of the queue. Only the guest goroutine
// touches it; the worker sees a batch only between receiving it on work
// and sending it back on done.
type refQueue struct {
	cur *batch // being filled by Exec; nil only inside Sync
	n   int    // records in cur

	running bool // inside Drive
	up      bool // the worker goroutine is running
	// work and done hold every batch, so neither side blocks on a send.
	work   chan *batch
	done   chan *batch
	spare  []*batch // not current and not with the worker
	out    int      // batches sent to the worker, not yet back
	workFn func()   // m.worker, bound once so starting it allocates nothing
}

// flush empties the full current batch: applied inline outside a run,
// handed to the worker inside one.
func (m *Machine) flush() {
	q := &m.q
	if !q.running {
		m.Cycles += m.apply(q.cur.recs[:q.n])
		q.n = 0
		return
	}
	m.handOff()
	m.take()
}

// handOff sends the current batch to the worker, starting the worker on
// the run's first batch.
func (m *Machine) handOff() {
	q := &m.q
	if !q.up {
		if q.work == nil {
			q.work = make(chan *batch, maxBatches)
			q.done = make(chan *batch, maxBatches)
			q.spare = make([]*batch, maxBatches-1, maxBatches)
			for i := range q.spare {
				q.spare[i] = new(batch)
			}
			q.workFn = m.worker
		}
		q.up = true
		go q.workFn()
	}
	q.cur.n = q.n
	q.work <- q.cur
	q.out++
	q.cur, q.n = nil, 0
}

// take makes a spare batch current, or else the next one the worker
// returns.
func (m *Machine) take() {
	q := &m.q
	if len(q.spare) == 0 {
		q.cur = m.collect()
		return
	}
	q.cur = q.spare[len(q.spare)-1]
	q.spare = q.spare[:len(q.spare)-1]
}

// collect waits for the worker's oldest outstanding batch and folds its
// stall into Cycles.
func (m *Machine) collect() *batch {
	b := <-m.q.done
	m.q.out--
	m.Cycles += b.stall
	return b
}

// worker applies batches in arrival order until it receives nil.
func (m *Machine) worker() {
	work, done := m.q.work, m.q.done
	for b := <-work; b != nil; b = <-work {
		b.stall = m.apply(b.recs[:b.n])
		done <- b
	}
	done <- nil
}

// apply replays records into the model in order and returns their summed
// stall. It is the only code in the package that calls the model. The
// views are read once per call: on the worker, the machine's fields share
// cache lines with the interpreter's hottest writes.
func (m *Machine) apply(recs []ref) (stall uint64) {
	model, nt, pf, fetch := m.Model, m.nt, m.pf, m.fetch
	for i := range recs {
		r := &recs[i]
		switch r.kind {
		case refLoad:
			stall += model.Access(r.addr, r.size, false)
		case refStore:
			stall += model.Access(r.addr, r.size, true)
		case refLoadNT:
			stall += nt.AccessNT(r.addr, r.size, false)
		case refStoreNT:
			stall += nt.AccessNT(r.addr, r.size, true)
		case refPrefetch:
			pf.Prefetch(r.addr)
		case refFetch:
			stall += fetch.FetchInstr(r.addr)
		case refFetchFaulted:
			fetch.FetchInstr(r.addr)
		}
	}
	return stall
}

// Sync applies every queued record and folds its stall into Cycles: it
// hands the partial batch to the worker, if one is running, and waits for
// every batch the worker holds; with no worker it applies the partial
// batch inline. Afterwards Cycles and the model's state are exact for
// every instruction retired so far. Anything that reads Cycles or the
// model during a run must call Sync first; outside a run both are always
// exact and Sync does nothing.
func (m *Machine) Sync() {
	q := &m.q
	if q.up && q.n > 0 {
		m.handOff()
	}
	for q.out > 0 {
		if b := m.collect(); q.cur == nil {
			q.cur = b
		} else {
			q.spare = append(q.spare, b)
		}
	}
	if q.n > 0 {
		m.Cycles += m.apply(q.cur.recs[:q.n])
		q.n = 0
	}
}

// Drive executes run as one machine run: references queued while it
// runs are applied by a worker goroutine, started when the first batch
// fills. When run returns or panics, Drive syncs and stops the worker, so
// Cycles and the model are exact and no goroutine outlives the call.
// Inside run, read Cycles or model state only after Sync.
func (m *Machine) Drive(run func() error) error {
	m.q.running = true
	defer m.stop()
	return run()
}

// stop ends a run: every record applied, the worker gone.
func (m *Machine) stop() {
	m.Sync()
	q := &m.q
	if q.up {
		q.work <- nil
		<-q.done
		q.up = false
	}
	q.running = false
}
