// Package trace is the flight recorder: a per-message trace context carried
// on frames through ports, switches, and software stages, recording
// contiguous per-hop spans on the virtual clock with a cause breakdown
// (software, queueing, serialization, propagation, switching) and a terminal
// event (accepted, consumed, dropped, blackholed, lost, purged).
//
// The recorder is built around three hard constraints:
//
//   - Non-perturbing: recording never schedules events, never draws from the
//     RNG, and never changes a branch the simulation takes. With no recorder
//     installed every hook is a nil-pointer compare, so the event schedule is
//     bit-identical to an untraced run (core's determinism tests enforce
//     this).
//   - Sampling-bounded: a Recorder starts at most one trace per Every
//     eligible messages (counter-based — no RNG draw) and caps the total
//     number of contexts (MaxTraces) including multicast forks; once the cap
//     is reached Start and Fork return nil and downstream frames simply go
//     untraced.
//   - Allocation-pooled: contexts and their span slices come from a free
//     list and are recycled on Reset, so steady-state tracing performs no
//     per-message heap allocation beyond span-slice growth up to the cap.
//
// Spans telescope: every span starts at the context's cursor and ends at the
// instant passed to Record, which becomes the new cursor. Sums of spans are
// therefore exactly End-minus-Start by construction — the property the E20
// attribution experiment's 0 ps reconciliation check rests on.
package trace

import "tradenet/internal/sim"

// Cause classifies where a span's time went, mirroring the paper's latency
// decomposition: software processing (§2's per-function budgets), queueing
// and serialization and propagation (§3's switching fabrics), and in-device
// switching latency (500 ns commodity vs 5 ns L1S).
type Cause uint8

const (
	CauseSoftware Cause = iota
	CauseQueueing
	CauseSerialization
	CausePropagation
	CauseSwitching

	// NumCauses sizes per-cause accumulation arrays.
	NumCauses = 5
)

// String returns the cause's attribution-table label.
func (c Cause) String() string {
	switch c {
	case CauseSoftware:
		return "software"
	case CauseQueueing:
		return "queueing"
	case CauseSerialization:
		return "serialization"
	case CausePropagation:
		return "propagation"
	case CauseSwitching:
		return "switching"
	}
	return "unknown"
}

// End is a trace's terminal event kind.
type End uint8

const (
	// EndNone marks a context still in flight.
	EndNone End = iota
	// EndAccepted: the matching engine admitted the traced order — the happy
	// path's terminal, and the only kind the attribution table reconciles.
	EndAccepted
	// EndConsumed: a software stage consumed the message without producing a
	// traced successor (filtered, unowned partition, no trigger).
	EndConsumed
	// EndDropped: tail-dropped at a full egress queue.
	EndDropped
	// EndBlackholed: transmitted into a link that was down.
	EndBlackholed
	// EndLost: lost in flight — a loss-probability draw or a link cut.
	EndLost
	// EndPurged: flushed from a queue by a device failure.
	EndPurged
	// EndDeduped: a redundant WAN copy discarded by the redundancy layer —
	// its sequence had already been delivered or held (send-twice working
	// as intended).
	EndDeduped
	// EndReconstructed: a parity frame spent rebuilding a lost groupmate —
	// the frame's bytes live on in the reconstructed datagram, with no
	// replay round trip.
	EndReconstructed
	// EndCrashed: the process that would have handled the message died
	// before its engine event fired — the order-entry shape of an exchange
	// failover, healed by client resubmission against the promoted standby.
	EndCrashed

	// NumEnds sizes per-end accumulation arrays.
	NumEnds = 10
)

// String returns the end kind's label.
func (e End) String() string {
	switch e {
	case EndNone:
		return "open"
	case EndAccepted:
		return "accepted"
	case EndConsumed:
		return "consumed"
	case EndDropped:
		return "dropped"
	case EndBlackholed:
		return "blackholed"
	case EndLost:
		return "lost"
	case EndPurged:
		return "purged"
	case EndDeduped:
		return "deduped"
	case EndReconstructed:
		return "reconstructed"
	case EndCrashed:
		return "crashed"
	}
	return "unknown"
}

// Span is one contiguous slice of a traced message's life: [Start, End) at
// Where, attributed to Cause.
type Span struct {
	Where string
	Cause Cause
	Start sim.Time
	End   sim.Time
}

// Ctx is one traced message's flight record. It rides on a frame (or is
// carried across software stages by their deferred-work structs) and is
// owned by exactly one holder at a time; multicast replication forks it.
type Ctx struct {
	// ID distinguishes traces and groups forks: a fork keeps its parent's ID
	// with a new fork ordinal.
	ID   uint64
	Fork int

	rec    *Recorder
	spans  []Span
	start  sim.Time
	cursor sim.Time
	end    End
}

// Start returns the instant the trace began (the publish instant).
func (c *Ctx) Start() sim.Time { return c.start }

// Terminal returns the trace's end kind (EndNone while in flight).
func (c *Ctx) Terminal() End { return c.end }

// Spans returns the recorded spans. The slice is owned by the recorder and
// valid until its Reset.
func (c *Ctx) Spans() []Span { return c.spans }

// Duration returns the sum of all recorded span durations, which by the
// telescoping invariant equals EndAt minus Start exactly.
func (c *Ctx) Duration() sim.Duration { return c.cursor.Sub(c.start) }

// ByCause returns the per-cause span-duration totals.
func (c *Ctx) ByCause() [NumCauses]sim.Duration {
	var out [NumCauses]sim.Duration
	for _, s := range c.spans {
		out[s.Cause] += s.End.Sub(s.Start)
	}
	return out
}

// Record appends a span at where covering [cursor, until) and advances the
// cursor to until. Zero-length spans are skipped (the cursor still moves);
// an until before the cursor is ignored — time never rewinds.
func (c *Ctx) Record(where string, cause Cause, until sim.Time) {
	if c == nil || until <= c.cursor {
		return
	}
	c.spans = append(c.spans, Span{Where: where, Cause: cause, Start: c.cursor, End: until})
	c.cursor = until
}

// Finish closes the trace with the given terminal kind at its current cursor
// and hands it to the recorder's finished list. Finishing an already-finished
// or nil context is a no-op, so terminal points can finish unconditionally.
func (c *Ctx) Finish(end End) {
	if c == nil || c.end != EndNone {
		return
	}
	c.end = end
	c.rec.done = append(c.rec.done, c)
}

// Recorder owns trace contexts for one simulation run. It is not safe for
// concurrent use — like the Scheduler, one recorder belongs to one
// simulation goroutine.
type Recorder struct {
	// Every samples one trace per Every eligible starts (1 = every message).
	// The stride is counter-based, not random, so installing a recorder
	// cannot perturb the run's RNG stream.
	every int
	// maxTraces caps the total contexts created (starts plus forks).
	maxTraces int

	counter uint64
	nextID  uint64
	created int
	// forkSeq[id] is the last fork ordinal issued for trace id, so sibling
	// forks get distinct ordinals (IDs are dense and cap-bounded).
	forkSeq []int

	free []*Ctx
	done []*Ctx
}

// NewRecorder creates a recorder sampling one in every starts, with at most
// maxTraces total contexts (forks included).
func NewRecorder(every, maxTraces int) *Recorder {
	if every < 1 {
		every = 1
	}
	if maxTraces < 1 {
		maxTraces = 1
	}
	return &Recorder{every: every, maxTraces: maxTraces}
}

// alloc takes a pooled context or makes one, counting it against the cap.
func (r *Recorder) alloc() *Ctx {
	if r.created >= r.maxTraces {
		return nil
	}
	r.created++
	if n := len(r.free); n > 0 {
		c := r.free[n-1]
		r.free = r.free[:n-1]
		return c
	}
	return &Ctx{rec: r, spans: make([]Span, 0, 16)}
}

// Start begins a new trace at the given instant if this start is sampled and
// capacity remains; otherwise it returns nil (and the message goes
// untraced).
func (r *Recorder) Start(at sim.Time) *Ctx {
	if r == nil {
		return nil
	}
	r.counter++
	if (r.counter-1)%uint64(r.every) != 0 {
		return nil
	}
	c := r.alloc()
	if c == nil {
		return nil
	}
	r.nextID++
	c.ID = r.nextID
	c.Fork = 0
	c.start, c.cursor = at, at
	c.end = EndNone
	c.spans = c.spans[:0]
	return c
}

// ForkOf clones a context for a replicated frame: the fork inherits the
// parent's spans and cursor and records independently from there. It returns
// nil when the parent is nil or the recorder is at capacity.
func ForkOf(parent *Ctx) *Ctx {
	if parent == nil {
		return nil
	}
	r := parent.rec
	c := r.alloc()
	if c == nil {
		return nil
	}
	c.ID = parent.ID
	for uint64(len(r.forkSeq)) <= parent.ID {
		r.forkSeq = append(r.forkSeq, 0)
	}
	r.forkSeq[parent.ID]++
	c.Fork = r.forkSeq[parent.ID]
	c.start, c.cursor = parent.start, parent.cursor
	c.end = EndNone
	c.spans = append(c.spans[:0], parent.spans...)
	return c
}

// Done returns the finished traces in finish order (deterministic: finish
// order is event order).
func (r *Recorder) Done() []*Ctx {
	if r == nil {
		return nil
	}
	return r.done
}

// Created returns the number of contexts created so far (starts + forks).
func (r *Recorder) Created() int {
	if r == nil {
		return 0
	}
	return r.created
}

// Reset recycles every finished context and clears the sampling counters, so
// one recorder serves many replications without re-allocating.
func (r *Recorder) Reset() {
	for _, c := range r.done {
		c.end = EndNone
		r.free = append(r.free, c)
	}
	r.done = r.done[:0]
	r.forkSeq = r.forkSeq[:0]
	r.counter, r.nextID = 0, 0
	r.created = 0
}
