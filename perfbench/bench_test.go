package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"tradenet/internal/core"
	"tradenet/internal/device"
)

// smallWorkload is a knob-off plant of the given design in SmallScenario's
// shape, cheap enough for unit tests.
func smallWorkload(design int) Workload {
	sc := core.SmallScenario()
	return Workload{
		Name: "test", Design: design, Strategies: sc.Strategies, Normalizers: sc.Normalizers,
		Gateways: sc.Gateways, Partitions: sc.InternalPartitions, Tenants: 3,
		BurstMsgs: 30, Bursts: 4, Plants: 1,
	}
}

func testSchedule(t *testing.T) Schedule {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec.Schedule
}

// The shared burst run must reproduce MeasureRoundTrip's tick-to-trade samples
// on a plant without liveness timers, where MeasureRoundTrip terminates.
func TestBurstRunMatchesMeasureRoundTrip(t *testing.T) {
	s := testSchedule(t)
	for _, design := range []int{1, 2, 3} {
		w := smallWorkload(design)
		r := arm(buildPlant(w, 7), w, s, nil)
		r.run()
		if err := r.quiesce(); err != nil {
			t.Fatalf("design %d: %v", design, err)
		}

		sc := w.scenario(7)
		var want core.RoundTrip
		switch design {
		case 1:
			want = core.NewDesign1(sc, device.DefaultCommodityConfig()).MeasureRoundTrip(w.Bursts)
		case 2:
			want = core.NewDesign2(sc, tenantLatencies(w.Tenants), true).MeasureRoundTrip(w.Bursts)
		case 3:
			want = core.NewDesign3(sc, 0).MeasureRoundTrip(w.Bursts)
		}
		if len(want.Samples) == 0 {
			t.Fatalf("design %d: MeasureRoundTrip took no samples", design)
		}
		if !reflect.DeepEqual(r.ticks, want.Samples) {
			t.Errorf("design %d: burst-run samples %v, MeasureRoundTrip %v", design, r.ticks, want.Samples)
		}
	}
}

// The traced run wraps every port owner and NIC handler; it must not change
// a single simulated output.
func TestTracingDoesNotPerturb(t *testing.T) {
	s := testSchedule(t)
	for _, design := range []int{1, 2, 3} {
		w := smallWorkload(design)
		plain := arm(buildPlant(w, 3), w, s, nil)
		plain.run()

		tr := newTracer(0)
		p := buildPlant(w, 3)
		traced := arm(p, w, s, tr)
		tr.wrap(p)
		tr.start()
		traced.run()

		if plain.digest() != traced.digest() {
			t.Errorf("design %d: traced digest %s, untraced %s", design, traced.digest(), plain.digest())
		}
		if tr.calls[layerNIC] == 0 || tr.calls[layerSwitch] == 0 || tr.calls[layerStrategy] == 0 {
			t.Errorf("design %d: layers missing from the trace: calls %v", design, tr.calls)
		}
		// Self times telescope: over all spans they add up to the time spent
		// inside outermost spans.
		var self int64
		for _, ns := range tr.selfNs {
			self += ns
		}
		if self != tr.rootNs {
			t.Errorf("design %d: self times sum to %d ns, outermost spans to %d ns", design, self, tr.rootNs)
		}
		for i, sp := range tr.spans {
			if sp.parent >= int32(i) || sp.end < sp.start {
				t.Fatalf("design %d: span %d malformed: %+v", design, i, sp)
			}
			if sp.parent >= 0 && tr.spans[sp.parent].layer != layerNIC {
				t.Fatalf("design %d: span %d nests in a %s span", design, i, layerNames[tr.spans[sp.parent].layer])
			}
		}
	}
}

// A plant with live liveness timers never drains; the deadline bounds it.
func TestBurstRunStopsAtDeadlineWithTimers(t *testing.T) {
	w := smallWorkload(2)
	w.OEResilience, w.ExchangeHA = true, true
	r := arm(buildPlant(w, 5), w, testSchedule(t), nil)
	r.run()
	if err := r.quiesce(); err != nil {
		t.Fatal(err)
	}
	if r.p.sched.Pending() == 0 {
		t.Error("expected timers still pending at the deadline")
	}
	if r.p.ha.Journal.Records == 0 {
		t.Error("the HA pair journaled nothing")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := nearestRank([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := nearestRank([]float64{4, 1, 3, 2}, 99); got != 4 {
		t.Errorf("p99 = %v, want 4", got)
	}
}

// syntheticBench is a two-plant run whose repetitions carry chosen values.
func syntheticBench() *bench {
	b := &bench{w: Workload{Bursts: 10, BurstMsgs: 100, Plants: 2}}
	add := func(plant int, cpuS float64, alloc, heap uint64) {
		b.reps = append(b.reps, rep{plant: plant, cpuS: cpuS, runS: cpuS, allocBytes: alloc, allocs: alloc / 100, heapLive: heap})
	}
	// Plant 0 has three repetitions, one of them slow; plant 1 has two.
	add(0, 1.0, 5000, 2e6)
	add(0, 9.0, 5000, 2e6)
	add(0, 1.2, 7000, 2e6)
	add(1, 2.0, 9000, 4e6)
	add(1, 2.2, 9000, 4e6)
	b.setups = [][]float64{{0.1, 0.3, 0.2}, {0.5, 0.4}}
	return b
}

func TestPerPlantMediansAndSampleCounts(t *testing.T) {
	b := syntheticBench()
	med, n := b.perPlant(false, func(r *rep) float64 { return r.cpuS })
	if !reflect.DeepEqual(med, []float64{1.2, 2.1}) || n != 2 {
		t.Errorf("perPlant = %v, %d; want [1.2 2.1], 2", med, n)
	}
	if _, n := b.perPlant(true, func(r *rep) float64 { return r.cpuS }); n != 0 {
		t.Errorf("traced repetitions counted: %d", n)
	}
	// Over their plant medians the times are 1/1.2, 9/1.2, 1, 2/2.1, 2.2/2.1.
	got := repSpread(b.byPlant(false, func(r *rep) float64 { return r.cpuS }))
	q1, m, q3 := quartiles([]float64{1 / 1.2, 9 / 1.2, 1, 2 / 2.1, 2.2 / 2.1})
	if want := (q3 - q1) / m; math.Abs(got-want) > 1e-12 {
		t.Errorf("repSpread = %v, want %v", got, want)
	}
}

// Every per-message figure divides by the messages the benchmark asked for,
// summed over the run's plants.
func TestPerMessageNormalisation(t *testing.T) {
	b := syntheticBench()
	got := map[string]namedMetric{}
	for _, m := range b.endToEnd() {
		got[m.name] = m
	}
	const msgs = 2 * 10 * 100
	check := func(name string, want float64, samples int) {
		t.Helper()
		m := got[name]
		if math.Abs(m.Value-want) > 1e-9*math.Abs(want) || m.samples != samples {
			t.Errorf("%s = %v over %d, want %v over %d", name, m.Value, m.samples, want, samples)
		}
	}
	check("md_msgs_per_s", msgs/(1.2+2.1), 2)
	check("alloc_bytes_per_msg", (5000.0+9000)/msgs, 2)
	check("allocs_per_msg", (50.0+90)/msgs, 2)
	check("heap_live_mb", (2.0+4)/2, 2)
	check("setup_s", (0.2+0.45)/2, 2)
	if perMsg(5, 0) != 0 || ratio(1, 0) != 0 {
		t.Error("division by zero not guarded")
	}
}

var retained []byte

func TestLiveHeapSeesRetainedBytes(t *testing.T) {
	base := liveHeap()
	retained = make([]byte, 64<<20)
	for i := range retained {
		retained[i] = byte(i)
	}
	held := liveHeap()
	retained = nil
	after := liveHeap()
	if d := float64(held) - float64(base); d < 63<<20 || d > 66<<20 {
		t.Errorf("retaining 64 MiB moved the live heap by %.1f MiB", d/(1<<20))
	}
	if d := math.Abs(float64(after) - float64(base)); d > 2<<20 {
		t.Errorf("dropping the buffer left the live heap %.1f MiB off its base", d/(1<<20))
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "tradenet/internal/netsim.(*Frame).Clone", "tradenet/internal/device.fanOut"}, "netsim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "tradenet/internal/netsim.NewFrame"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"time.now", "main.(*tracer).begin", "tradenet/internal/netsim.deliverFrame"}, "bench"},
		{[]string{"tradenet/internal/sim.(*Scheduler).step"}, "sim"},
		{[]string{"tradenet/internal/core.(*HACluster).heartbeatTick.func1"}, "core"},
		{[]string{"runtime.futex", "runtime.goexit"}, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
	byMod, total := attribute([]cpuSample{
		{[]string{"tradenet/internal/sim.(*Scheduler).pop"}, 3},
		{[]string{"tradenet/internal/core.measure"}, 2}, // not a reported module
		{[]string{"runtime.mallocgc"}, 1},
	})
	if total != 6 || byMod["sim"] != 3 || byMod["other"] != 2 || byMod["runtime"] != 1 {
		t.Errorf("attribute = %v over %d", byMod, total)
	}
}

// pb is a minimal protobuf encoder for synthetic profiles.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
func (b pb) uint(field int, v uint64) pb { return b.varint(uint64(field) << 3).varint(v) }
func (b pb) bytes(field int, data []byte) pb {
	return append(b.varint(uint64(field)<<3|2).varint(uint64(len(data))), data...)
}

func TestParseSyntheticProfile(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "samples", "count", "tradenet/internal/sim.(*Scheduler).step", "tradenet/internal/market.(*Book).Add", "runtime.mallocgc"} {
		prof = prof.bytes(6, []byte(s))
	}
	// Functions 1..3 name strings 3..5.
	for id := uint64(1); id <= 3; id++ {
		prof = prof.bytes(5, pb{}.uint(1, id).uint(2, id+2))
	}
	// Location 10 inlines market.Add (innermost) into sim.step; location 11
	// is mallocgc.
	loc10 := pb{}.uint(1, 10).bytes(4, pb{}.uint(1, 2)).bytes(4, pb{}.uint(1, 1))
	prof = prof.bytes(4, loc10)
	prof = prof.bytes(4, pb{}.uint(1, 11).bytes(4, pb{}.uint(1, 3)))
	// One sample with unpacked ids and values, one packed.
	prof = prof.bytes(2, pb{}.uint(1, 10).uint(2, 4).uint(2, 40000000))
	prof = prof.bytes(2, pb{}.bytes(1, pb{}.varint(11).varint(10).varint(10)).bytes(2, pb{}.varint(2).varint(20000000)))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{[]string{"tradenet/internal/market.(*Book).Add", "tradenet/internal/sim.(*Scheduler).step"}, 4},
		{[]string{"runtime.mallocgc", "tradenet/internal/market.(*Book).Add", "tradenet/internal/sim.(*Scheduler).step",
			"tradenet/internal/market.(*Book).Add", "tradenet/internal/sim.(*Scheduler).step"}, 2},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("parsed %v, want %v", samples, want)
	}
	byMod, total := attribute(samples)
	if total != 6 || byMod["market"] != 4 || byMod["runtime"] != 2 {
		t.Errorf("attribute = %v over %d", byMod, total)
	}
	if _, err := parseCPUProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

//go:noinline
func burnCPU(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

// The decoder reads what runtime/pprof writes.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	sink = burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, s := range samples {
		for _, f := range s.frames {
			if f == "tradenet/perfbench.burnCPU" {
				n += s.count
				break
			}
		}
	}
	if n == 0 {
		t.Errorf("no samples in burnCPU among %d samples", len(samples))
	}
}

// spec.json and BENCHMARK.json must name the same workloads, and every
// recorded digest list covers each of the workload's plants.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(spec.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.json %d", len(bj.Workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.json %q", i, bj.Workloads[i].Name, w.Name)
		}
		if w.Plants < 1 || w.Bursts < 1 || w.BurstMsgs < 1 {
			t.Errorf("%s: empty run shape", w.Name)
		}
		if len(w.Digests) < 2 {
			t.Errorf("%s: digests recorded for %d seeds, want the default and a held-out seed", w.Name, len(w.Digests))
		}
		for seed, ds := range w.Digests {
			if len(ds) != w.Plants {
				t.Errorf("%s seed %s: %d digests for %d plants", w.Name, seed, len(ds), w.Plants)
			}
		}
	}
}

// The recorded digest of the cheapest workload's first plant still holds.
func TestRecordedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full workload plant")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.workload("l1s_small_long")
	if err != nil {
		t.Fatal(err)
	}
	for seed, ds := range w.Digests {
		var s int64
		if err := json.Unmarshal([]byte(seed), &s); err != nil {
			t.Fatal(err)
		}
		r := arm(buildPlant(w, plantSeed(s, 0)), w, spec.Schedule, nil)
		r.run()
		if err := r.quiesce(); err != nil {
			t.Fatal(err)
		}
		if got := r.digest(); got != ds[0] {
			t.Errorf("seed %s plant 0: digest %s, recorded %s", seed, got, ds[0])
		}
		runtime.GC()
	}
}
