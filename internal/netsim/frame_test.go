package netsim

import (
	"bytes"
	"testing"

	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// pattern returns n distinct, recognisable bytes.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

func TestCloneAliasesPayload(t *testing.T) {
	f := NewFrameBytes(pattern(64))
	f.Origin, f.ID = 5, 9
	c := f.Clone()
	if c == f {
		t.Fatal("clone reused the source descriptor")
	}
	if &c.Data[0] != &f.Data[0] || len(c.Data) != len(f.Data) {
		t.Fatal("clone does not view its source's bytes")
	}
	if c.buf != f.buf || f.buf.refs != 2 {
		t.Fatalf("clone shares payload %v, refs = %d; want shared, 2", c.buf == f.buf, f.buf.refs)
	}
	if c.Origin != 5 || c.ID != 9 {
		t.Fatalf("clone Origin/ID = %v/%d", c.Origin, c.ID)
	}
	p := f.buf
	f.Release()
	f.Release() // a double release drops one ref, not two
	if p.refs != 1 {
		t.Fatalf("refs after the original's double release = %d, want 1", p.refs)
	}
	c.Release()
	if p.refs != 0 {
		t.Fatalf("refs after releasing both copies = %d, want 0", p.refs)
	}
}

func TestReleasedOriginalLeavesQueuedCloneIntact(t *testing.T) {
	sched := sim.NewScheduler(1)
	a := NewPort(sched, nil, "a")
	rx := &sink{sched: sched}
	b := NewPort(sched, rx, "b")
	Connect(a, b, units.Rate10G, 0)

	want := pattern(200)
	f := NewFrameBytes(want)
	c := f.Clone()
	if !a.Send(c) {
		t.Fatal("clone not queued")
	}
	// The original's terminal point may release unconditionally, even twice.
	f.Release()
	f.Release()
	if c.buf.refs != 1 {
		t.Fatalf("queued clone's payload refs = %d, want 1", c.buf.refs)
	}
	// While the clone waits in the queue, the pools hand out and overwrite
	// new frames. None of them may be built over the clone's payload.
	var churn []*Frame
	for i := 0; i < 64; i++ {
		g := NewFrame()
		if g.buf == c.buf {
			t.Fatalf("payload recycled while a queued clone still views it (frame %d)", i)
		}
		g.Data = append(g.Data, bytes.Repeat([]byte{0xEE}, 200)...)
		churn = append(churn, g)
	}
	for _, g := range churn {
		g.Release()
	}
	sched.Run()
	if len(rx.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(rx.frames))
	}
	if !bytes.Equal(rx.frames[0].Data, want) {
		t.Fatal("queued clone's bytes changed after the original was released")
	}
	rx.frames[0].Release()
}

func TestPayloadRecycledOnceAfterLastRef(t *testing.T) {
	f := NewFrameBytes(pattern(32))
	c1, c2 := f.Clone(), f.Clone()
	p := f.buf
	for i, fr := range []*Frame{f, c1, c2} {
		fr.Release()
		if want := int32(2 - i); p.refs != want {
			t.Fatalf("after %d releases refs = %d, want %d", i+1, p.refs, want)
		}
		if i < 2 {
			// Still referenced: the pool must not hand the payload out.
			g := NewFrame()
			if g.buf == p {
				t.Fatalf("payload handed out with %d live refs", p.refs)
			}
			g.Release()
		}
	}
	c2.Release() // a stray second release must not recycle it again
	if p.refs != 0 {
		t.Fatalf("refs after a double release = %d, want 0", p.refs)
	}
	// Recycled exactly once: at most one new frame can be built over it.
	g1, g2 := NewFrame(), NewFrame()
	if g1.buf == p && g2.buf == p {
		t.Fatal("payload returned to the pool more than once")
	}
	if g1.buf.refs != 1 || g2.buf.refs != 1 {
		t.Fatalf("fresh payload refs = %d, %d; want 1, 1", g1.buf.refs, g2.buf.refs)
	}
	g1.Release()
	g2.Release()
}
