package netsim

import (
	"sync"

	"tradenet/internal/trace"
)

// frameBufCap is the byte capacity of pooled payload buffers: comfortably
// above the largest legal frame (pkt.MaxFrameNoFCS), so building any frame
// into a pooled buffer never re-allocates.
const frameBufCap = 2048

// frameBuf is the shared payload behind pooled frames: one byte buffer that
// a frame and every clone of it view. refs counts the live frames viewing
// buf; the buffer returns to its pool when the last of them is released.
// The count is a plain int32 because a live frame never leaves the
// goroutine of the run that made it.
type frameBuf struct {
	buf  []byte
	refs int32
}

// framePool recycles Frame descriptors and bufPool their payloads, making
// the per-frame hot path allocation-free. They are sync.Pools rather than
// per-run free lists because core.RunParallel runs independent simulations
// on separate goroutines that share this package, and because a free list
// owned by a run would keep the run's burst peak of descriptors and
// payloads alive for as long as the run's plant is reachable.
var (
	framePool = sync.Pool{New: func() any { return new(Frame) }}
	bufPool   = sync.Pool{New: func() any { return &frameBuf{buf: make([]byte, 0, frameBufCap)} }}
)

// NewFrame returns an empty pooled frame over a fresh payload. Build the
// wire bytes by appending to Data (capacity frameBufCap is pre-reserved)
// before the frame is first sent; from then on Data is immutable. Pass
// ownership along with the frame: whoever terminates it calls Release.
//
//simlint:allow sharedstate: bufPool is a sync.Pool — concurrency-safe by contract, and a recycled buffer carries no observable state between runs
func NewFrame() *Frame {
	p := bufPool.Get().(*frameBuf)
	p.refs = 1
	f := newDescriptor(p)
	f.Data = p.buf[:0]
	f.Origin = 0
	f.ID = 0
	return f
}

// newDescriptor takes a descriptor from the pool and points it at p. The
// caller has already counted the new reference in p.refs.
//
//simlint:allow sharedstate: framePool is a sync.Pool — concurrency-safe by contract, and a recycled descriptor is fully reset before use
func newDescriptor(p *frameBuf) *Frame {
	f := framePool.Get().(*Frame)
	f.buf = p
	// f.Trace is already nil: fresh descriptors start nil and Release
	// clears it before pooling. Not storing here keeps this path free of
	// GC write barriers (a nil pointer store still pays one).
	f.released = false
	return f
}

// NewFrameBytes returns a pooled frame whose Data is a copy of data.
func NewFrameBytes(data []byte) *Frame {
	f := NewFrame()
	f.Data = append(f.Data, data...)
	return f
}

// Release ends this copy of the frame: its descriptor returns to the pool
// and it drops its reference on the payload, which returns to its own pool
// once no clone views it any more. Release is a no-op for frames not
// obtained from the pool (hand-built test frames) and for double releases,
// so terminal points can release unconditionally.
//
// Release only at provably-terminal points: address-filter discards, queue
// tail-drops, in-flight losses, and consumers that are done with the bytes.
// Frames handed to an application callback may be retained by it (e.g. a
// normalizer defers processing); infrastructure must not release those.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if t := f.Trace; t != nil {
		// Catch-all terminal: a consumer done with the bytes (and anything
		// that forgot an explicit terminal) closes the trace as consumed at
		// its last recorded instant. Paths with a more specific terminal
		// (drop, blackhole, loss, purge) finish the trace before releasing.
		t.Finish(trace.EndConsumed)
		f.Trace = nil
	}
	p := f.buf
	if p == nil || f.released {
		return
	}
	f.released = true
	//simlint:allow sharedstate: returning to the sync.Pool is concurrency-safe by contract; the descriptor is dead and carries no state into its next run
	framePool.Put(f)
	p.refs--
	if p.refs == 0 {
		//simlint:allow sharedstate: returning to the sync.Pool is concurrency-safe by contract; no live frame views the payload any more
		bufPool.Put(p)
	}
}
