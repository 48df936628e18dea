package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tradenet/internal/netsim"
)

// span is one wrapped call: its layer, host start and end in ns since the
// run began, the index of the span it is nested in (-1 for none) and the
// burst that was last published when it started (-1 before the first).
type span struct {
	start, end int64
	parent     int32
	burst      int32
	layer      Layer
}

// tracer records spans around the plant's layer boundaries from outside the
// program. Spans stay in memory while the plant runs and are written out
// after it. Self time is charged online: a span's duration minus the
// durations of the spans nested in it.
type tracer struct {
	t0    time.Time
	burst int32
	spans []span
	stack []int32
	child []int64 // child[i] sums the durations of stack[i]'s children

	selfNs [numLayers]int64
	calls  [numLayers]int64
	// rootNs sums the durations of outermost spans: run time spent inside
	// some wrapped handler.
	rootNs int64
}

func newTracer(capHint int) *tracer {
	return &tracer{burst: -1, spans: make([]span, 0, capHint)}
}

func (t *tracer) begin(l Layer) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.child = append(t.child, 0)
	t.spans = append(t.spans, span{start: int64(time.Since(t.t0)), parent: parent, burst: t.burst, layer: l})
}

func (t *tracer) end() {
	now := int64(time.Since(t.t0))
	n := len(t.stack) - 1
	s := &t.spans[t.stack[n]]
	s.end = now
	dur := now - s.start
	t.selfNs[s.layer] += dur - t.child[n]
	t.calls[s.layer]++
	t.stack, t.child = t.stack[:n], t.child[:n]
	if n > 0 {
		t.child[n-1] += dur
	} else {
		t.rootNs += dur
	}
}

// ownerSpan wraps a port's frame handler.
type ownerSpan struct {
	inner netsim.Handler
	t     *tracer
	layer Layer
}

func (o *ownerSpan) HandleFrame(ingress *netsim.Port, f *netsim.Frame) {
	o.t.begin(o.layer)
	o.inner.HandleFrame(ingress, f)
	o.t.end()
}

// wrap instruments p: every switch port's Owner, every host port's Owner
// and every NIC.OnFrame. Call it after the plant is fully built and before
// it runs.
func (t *tracer) wrap(p *plant) {
	for _, port := range p.switchPorts {
		port.Owner = &ownerSpan{inner: port.Owner, t: t, layer: layerSwitch}
	}
	for _, rn := range p.nics {
		port := rn.nic.Port
		port.Owner = &ownerSpan{inner: port.Owner, t: t, layer: layerNIC}
		inner := rn.nic.OnFrame
		if inner == nil {
			continue
		}
		l := rn.layer
		rn.nic.OnFrame = func(n *netsim.NIC, f *netsim.Frame) {
			t.begin(l)
			inner(n, f)
			t.end()
		}
	}
}

// start marks the beginning of the run; span times count from here.
func (t *tracer) start() { t.t0 = time.Now() }

// writeSpans writes the spans as fixed-size little-endian records
// (start, end int64; parent, burst int32; layer uint8) after a one-line
// text header naming the layers.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "perfbench spans v1 record=25B layers=%q\n", layerNames)
	var rec [25]byte
	for _, s := range t.spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[16:], uint32(s.parent))
		binary.LittleEndian.PutUint32(rec[20:], uint32(s.burst))
		rec[24] = byte(s.layer)
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
