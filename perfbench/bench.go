package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"tradenet/internal/sim"
)

// plantSeedStride separates the seeds of one run's plants: plant j runs
// with Scenario.Seed = seed + j*plantSeedStride, so plant 0 runs the seed
// argument itself.
const plantSeedStride = 1_000_003

func plantSeed(seed int64, j int) int64 { return seed + int64(j)*plantSeedStride }

// Run-shape limits. A run keeps measuring until its time is used, but never
// takes fewer samples than these.
const (
	minSetupRounds = 3    // set-up-only constructions of each plant
	setupShare     = 0.05 // of --seconds spent on set-up-only constructions
	minTracedPairs = 2    // untraced-traced pairs a traced run measures
)

// counters are a repetition's simulated outputs the per-layer report
// needs. They are the same on every repetition of one plant.
type counters struct {
	orders                   int
	ttP50, ttP99             sim.Duration
	rx, filtered, tx, drops  uint64
	queueDelay               sim.Duration
	forwarded, softForwarded uint64
	msgsIn, ordersSent       uint64
	executions               uint64
	records, journalBytes    uint64
	lagSum, lagN             uint64
}

func countersOf(r *burstRun) counters {
	p := r.p
	ticks := make([]float64, len(r.ticks))
	for i, t := range r.ticks {
		ticks[i] = float64(t)
	}
	c := counters{
		orders:        len(r.ticks),
		ttP50:         sim.Duration(nearestRank(ticks, 50)),
		ttP99:         sim.Duration(nearestRank(ticks, 99)),
		forwarded:     p.forwarded(),
		softForwarded: p.softForwarded(),
		executions:    p.ex.Executions,
		lagSum:        r.lagSum,
		lagN:          r.lagN,
	}
	for _, rn := range p.nics {
		c.rx += rn.nic.Port.RxFrames
		c.filtered += rn.nic.Filtered
	}
	for _, port := range p.ports() {
		c.tx += port.TxFrames
		c.drops += port.Drops
		c.queueDelay += port.QueueDelay
	}
	for _, s := range p.strats {
		c.msgsIn += s.MsgsIn
		c.ordersSent += s.OrdersSent
	}
	if p.ha != nil {
		c.records, c.journalBytes = p.ha.Journal.Records, p.ha.Journal.Bytes
	}
	return c
}

// rep is one measured repetition: a fresh plant run to the deadline.
type rep struct {
	plant      int
	traced     bool
	runS       float64 // host wall seconds of the run phase
	cpuS       float64 // host CPU seconds of the run phase, every thread
	prof       sim.Profile
	allocBytes uint64
	allocs     uint64
	heapLive   uint64
	gcCycles   uint32
	digest     string
	err        error
	c          counters

	// Traced repetitions only.
	selfNs    [numLayers]int64
	calls     [numLayers]int64
	rootNs    int64
	publishNs int64
	cpu       []cpuSample
}

type bench struct {
	spec Spec
	w    Workload
	o    options
	out  io.Writer

	reps    []rep
	setups  [][]float64 // per plant
	digests []string    // per plant: its first repetition's digest

	// spans counts the last traced repetition's spans; artifactErr is the
	// first failure to write a span log or CPU profile.
	spans       int
	artifactErr error
}

func (b *bench) plants() int { return b.w.Plants }

func (b *bench) execute() (result, error) {
	start := time.Now()
	budget := time.Duration(b.o.seconds * float64(time.Second))
	k := b.plants()
	b.setups = make([][]float64, k)
	b.digests = make([]string, k)
	if !b.o.trace {
		for i := 0; i < k*minSetupRounds || time.Since(start) < time.Duration(setupShare*float64(budget)); i++ {
			j := i % k
			b.setups[j] = append(b.setups[j], b.setupOnly(j))
		}
		b.rounds(start.Add(budget))
	} else {
		// Each plant runs untraced and then traced: the traced run is kept
		// apart from the timed one, and the pairs share the box's load, so
		// their difference is the tracing overhead.
		for i := 0; i < minTracedPairs || time.Since(start) < budget; i++ {
			b.measure(i%k, false)
			b.measure(i%k, true)
		}
		if b.artifactErr != nil {
			return result{}, b.artifactErr
		}
	}
	res := result{Attempted: len(b.reps), Metrics: map[string]metric{}}
	for _, r := range b.reps {
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(b.out, "FAILED plant %d: %v\n", r.plant, r.err)
		}
	}
	res.Correct = res.Failed == 0
	var ms []namedMetric
	if b.o.trace {
		ms = b.perLayer()
	} else {
		ms = b.endToEnd()
	}
	for _, m := range ms {
		res.Metrics[m.name] = m.metric
	}
	b.report(res, ms)
	return res, nil
}

// rounds measures every plant in turn, round after round, until every
// plant has run once and the deadline has passed; past the deadline it stops
// even in mid-round.
func (b *bench) rounds(until time.Time) {
	for round := 0; ; round++ {
		for j := 0; j < b.plants(); j++ {
			if round > 0 && !time.Now().Before(until) {
				return
			}
			b.measure(j, false)
		}
	}
}

// setupOnly times one independent construction of plant j: build the
// plant, start its HA pair, schedule the bursts. The plant is then dropped.
func (b *bench) setupOnly(j int) float64 {
	runtime.GC()
	t0 := time.Now()
	p := buildPlant(b.w, plantSeed(b.o.seed, j))
	arm(p, b.w, b.spec.Schedule, nil)
	return time.Since(t0).Seconds()
}

// measure runs one repetition of plant j and checks its outputs. A traced
// repetition also records spans and a CPU profile.
func (b *bench) measure(j int, traced bool) {
	var tr *tracer
	if traced {
		tr = newTracer(b.spans)
	}
	runtime.GC()
	p := buildPlant(b.w, plantSeed(b.o.seed, j))
	r := arm(p, b.w, b.spec.Schedule, tr)
	rp := rep{plant: j, traced: traced}
	var cpu bytes.Buffer
	if traced {
		tr.wrap(p)
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			rp.err = fmt.Errorf("start cpu profile: %w", err)
		}
		tr.start()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	r.run()
	rp.runS = time.Since(t0).Seconds()
	rp.cpuS = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
		samples, err := parseCPUProfile(cpu.Bytes())
		if err != nil && rp.err == nil {
			rp.err = err
		}
		rp.cpu = samples
		rp.selfNs, rp.calls, rp.rootNs, rp.publishNs = tr.selfNs, tr.calls, tr.rootNs, r.publishNs
		b.spans = len(tr.spans)
		// Write now, not after the last repetition: spans held over would
		// grow the live heap, and with it the GC pacing, of the untraced
		// repetition that follows. Each traced repetition overwrites the
		// last one's files.
		if err := b.writeArtifacts(tr, cpu.Bytes()); err != nil && b.artifactErr == nil {
			b.artifactErr = err
		}
		tr.spans = nil
	}
	rp.prof = p.sched.Profile()
	rp.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	rp.allocs = m1.Mallocs - m0.Mallocs
	rp.gcCycles = m1.NumGC - m0.NumGC
	rp.heapLive = liveHeap()
	runtime.KeepAlive(r)

	rp.c = countersOf(r)
	if rp.err == nil {
		rp.err = r.quiesce()
	}
	rp.digest = r.digest()
	if b.digests[j] == "" {
		b.digests[j] = rp.digest
	}
	if rp.err == nil && rp.digest != b.digests[j] {
		rp.err = fmt.Errorf("digest %s differs from the plant's first repetition %s", rp.digest, b.digests[j])
	}
	if want := b.w.Digests[strconv.FormatInt(b.o.seed, 10)]; rp.err == nil && len(want) == b.plants() && rp.digest != want[j] {
		rp.err = fmt.Errorf("digest %s, recorded digest for seed %d is %s", rp.digest, b.o.seed, want[j])
	}
	b.reps = append(b.reps, rp)
}

// cpuTime returns the process's user plus system CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// liveHeap returns the bytes still reachable. It collects twice: the first
// collection moves netsim's frame pool into the pool's victim cache, the
// second frees it, so recycled buffers do not count as live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// namedMetric is one reported figure with the number of repetitions it was
// taken over and, for end-to-end figures, the spread across repetitions.
type namedMetric struct {
	name string
	metric
	samples int
	spread  float64
}

// byPlant collects f over every repetition of one kind, traced or not,
// indexed by plant.
func (b *bench) byPlant(traced bool, f func(r *rep) float64) [][]float64 {
	xs := make([][]float64, b.plants())
	for i := range b.reps {
		if r := &b.reps[i]; r.traced == traced {
			xs[r.plant] = append(xs[r.plant], f(r))
		}
	}
	return xs
}

// repSpread is the run's own noise: the distance between the quartiles of
// every sample taken over its plant's median, as a share of their median.
// Plants differ in cost, so samples are compared with their own plant.
func repSpread(groups [][]float64) float64 {
	var ratios []float64
	for _, xs := range groups {
		if m := median(xs); m != 0 {
			for _, x := range xs {
				ratios = append(ratios, x/m)
			}
		}
	}
	q1, m, q3 := quartiles(ratios)
	return ratio(q3-q1, m)
}

// perPlant returns, for each plant measured at least once, the median of f
// over that plant's repetitions of one kind, traced or not, and the fewest
// repetitions any of them had. Medians keep one slow repetition from moving
// the figure.
func (b *bench) perPlant(traced bool, f func(r *rep) float64) ([]float64, int) {
	xs := b.byPlant(traced, f)
	var out []float64
	n := 0
	for _, x := range xs {
		if len(x) == 0 {
			continue
		}
		if len(out) == 0 || len(x) < n {
			n = len(x)
		}
		out = append(out, median(x))
	}
	return out, n
}

// total sums f's per-plant medians: the figure for the measured plants'
// whole input.
func (b *bench) total(traced bool, f func(r *rep) float64) (float64, int) {
	xs, n := b.perPlant(traced, f)
	return sum(xs), n
}

// measured counts the plants with at least one repetition of the kind.
func (b *bench) measured(traced bool) int {
	xs, _ := b.perPlant(traced, func(*rep) float64 { return 0 })
	return len(xs)
}

// msgs is the input of the measured plants: every one of their bursts.
func (b *bench) msgs(traced bool) float64 {
	return float64(b.measured(traced) * b.w.Bursts * b.w.BurstMsgs)
}

func (b *bench) rate(traced bool) (float64, int) {
	cpuS, n := b.total(traced, func(r *rep) float64 { return r.cpuS })
	return ratio(b.msgs(traced), cpuS), n
}

func (b *bench) endToEnd() []namedMetric {
	n := b.msgs(false)
	rate, reps := b.rate(false)
	alloc, _ := b.total(false, func(r *rep) float64 { return float64(r.allocBytes) })
	allocs, _ := b.total(false, func(r *rep) float64 { return float64(r.allocs) })
	heap, _ := b.total(false, func(r *rep) float64 { return float64(r.heapLive) })
	var setup float64
	setupN := -1
	for _, xs := range b.setups {
		setup += median(xs)
		if setupN < 0 || len(xs) < setupN {
			setupN = len(xs)
		}
	}
	k := float64(b.measured(false))
	spread := func(f func(r *rep) float64) float64 { return repSpread(b.byPlant(false, f)) }
	return []namedMetric{
		{"md_msgs_per_s", metric{rate, "msg/s"}, reps, spread(func(r *rep) float64 { return 1 / r.cpuS })},
		{"alloc_bytes_per_msg", metric{alloc / n, "B/msg"}, reps, spread(func(r *rep) float64 { return float64(r.allocBytes) })},
		{"allocs_per_msg", metric{allocs / n, "1/msg"}, reps, spread(func(r *rep) float64 { return float64(r.allocs) })},
		{"heap_live_mb", metric{heap / k / 1e6, "MB"}, reps, spread(func(r *rep) float64 { return float64(r.heapLive) })},
		{"setup_s", metric{setup / float64(len(b.setups)), "s"}, setupN, repSpread(b.setups)},
	}
}

func (b *bench) perLayer() []namedMetric {
	// Every plant measured runs once untraced and once traced, so both
	// kinds cover the same input.
	n := b.msgs(true)
	var ms []namedMetric
	put := func(name, unit string, v float64, reps int) {
		ms = append(ms, namedMetric{name: name, metric: metric{v, unit}, samples: reps})
	}
	events, _ := b.total(false, func(r *rep) float64 { return float64(r.prof.Fired) })
	untracedS, un := b.total(false, func(r *rep) float64 { return r.cpuS })
	tot := func(traced bool, f func(r *rep) float64) float64 { v, _ := b.total(traced, f); return v }

	// The scheduler, from the untraced repetitions.
	put("sim.ns_per_event", "ns", ratio(untracedS*1e9, events), un)
	put("sim.events_per_msg", "1/msg", events/n, un)
	put("sim.closure_frac", "frac", ratio(tot(false, func(r *rep) float64 { return float64(r.prof.FiredClosure) }), events), un)
	put("sim.cascades_per_event", "1/event", ratio(tot(false, func(r *rep) float64 { return float64(r.prof.Cascades) }), events), un)
	put("sim.overflow_per_event", "1/event", ratio(tot(false, func(r *rep) float64 { return float64(r.prof.PlacedOverflow) }), events), un)
	put("runtime.gc_cycles", "count", tot(false, func(r *rep) float64 { return float64(r.gcCycles) })/float64(b.measured(false)), un)

	// Span-derived figures, from the traced repetitions, in host ns per
	// input message.
	tracedS, tn := b.total(true, func(r *rep) float64 { return r.runS })
	root := tot(true, func(r *rep) float64 { return float64(r.rootNs) })
	publish := tot(true, func(r *rep) float64 { return float64(r.publishNs) })
	self := func(l Layer) float64 { return tot(true, func(r *rep) float64 { return float64(r.selfNs[l]) }) / n }
	calls := func(l Layer) float64 { return tot(true, func(r *rep) float64 { return float64(r.calls[l]) }) }
	put("sim.residual_ns_per_event", "ns", ratio(tracedS*1e9-root-publish, events), tn)
	put("netsim.nic.self_ns", "ns/msg", self(layerNIC), tn)
	put("netsim.nic.calls_per_msg", "1/msg", calls(layerNIC)/n, tn)
	put("device.switch.self_ns", "ns/msg", self(layerSwitch), tn)
	put("device.switch.calls_per_msg", "1/msg", calls(layerSwitch)/n, tn)
	put("firm.strategy.onframe_ns", "ns/msg", self(layerStrategy), tn)
	put("firm.normalizer.onframe_ns", "ns/msg", self(layerNormalizer), tn)
	put("orderentry.onframe_ns", "ns/msg", self(layerOrderEntry), tn)
	put("exchange.publish_ns_per_msg", "ns/msg", publish/n, tn)

	// Simulated counters, the same on every repetition of a plant.
	cnt := func(f func(c *counters) float64) float64 { return tot(true, func(r *rep) float64 { return f(&r.c) }) }
	orders := cnt(func(c *counters) float64 { return float64(c.orders) })
	tx := cnt(func(c *counters) float64 { return float64(c.tx) })
	put("netsim.nic.filtered_frac", "frac", ratio(cnt(func(c *counters) float64 { return float64(c.filtered) }), cnt(func(c *counters) float64 { return float64(c.rx) })), tn)
	put("netsim.port.tx_frames_per_msg", "1/msg", tx/n, tn)
	put("netsim.port.drops", "count", cnt(func(c *counters) float64 { return float64(c.drops) }), tn)
	put("netsim.port.queue_delay_ns_mean", "sim_ns", ratio(cnt(func(c *counters) float64 { return float64(c.queueDelay) / float64(sim.Nanosecond) }), tx), tn)
	put("device.switch.forwarded_per_msg", "1/msg", cnt(func(c *counters) float64 { return float64(c.forwarded) })/n, tn)
	put("device.switch.soft_forwarded", "count", cnt(func(c *counters) float64 { return float64(c.softForwarded) }), tn)
	put("firm.strategy.msgs_in_per_msg", "1/msg", cnt(func(c *counters) float64 { return float64(c.msgsIn) })/n, tn)
	put("firm.strategy.orders_per_msg", "1/msg", cnt(func(c *counters) float64 { return float64(c.ordersSent) })/n, tn)
	put("orderentry.calls_per_order", "1/order", ratio(calls(layerOrderEntry), orders), tn)
	put("exchange.orders_per_msg", "1/msg", orders/n, tn)
	put("exchange.executions_per_order", "1/order", ratio(cnt(func(c *counters) float64 { return float64(c.executions) }), orders), tn)
	put("replication.records_per_order", "1/order", ratio(cnt(func(c *counters) float64 { return float64(c.records) }), orders), tn)
	put("replication.bytes_per_msg", "B/msg", cnt(func(c *counters) float64 { return float64(c.journalBytes) })/n, tn)
	put("replication.follower_lag", "records", ratio(cnt(func(c *counters) float64 { return float64(c.lagSum) }), cnt(func(c *counters) float64 { return float64(c.lagN) })), tn)

	// CPU-profile attribution, pooled over the traced repetitions. The
	// tracer's own samples are not the program's: they are left out of
	// every fraction's base.
	byMod, total := b.cpuByModule()
	program := float64(total - byMod["bench"])
	for _, mod := range cpuModules {
		frac := ratio(float64(byMod[mod]), program)
		switch mod {
		case "runtime":
			put("runtime.gc_cpu_frac", "frac", frac, tn)
		case "bench", "other":
			// Not a layer of the program; printed in the report only.
		default:
			put(mod+".cpu_frac", "frac", frac, tn)
		}
	}
	untraced, _ := b.rate(false)
	traced, _ := b.rate(true)
	put("trace_overhead_frac", "frac", ratio(untraced-traced, untraced), tn)
	return ms
}

func (b *bench) cpuByModule() (map[string]int64, int64) {
	var all []cpuSample
	for i := range b.reps {
		all = append(all, b.reps[i].cpu...)
	}
	return attribute(all)
}

// report prints the human-readable summary: every metric with its unit and
// sample count, the error rate, and the simulated answer beside it.
func (b *bench) report(res result, ms []namedMetric) {
	mode := "timed"
	if b.o.trace {
		mode = "traced"
	}
	fmt.Fprintf(b.out, "perfbench %s seed=%d %s: %d plants x %d bursts x %d msgs, %d repetitions\n",
		b.w.Name, b.o.seed, mode, b.plants(), b.w.Bursts, b.w.BurstMsgs, len(b.reps))
	fmt.Fprintf(b.out, "  %-34s %-8s %16s  %s\n", "metric", "unit", "value", "repetitions per plant, spread across them")
	for _, m := range ms {
		fmt.Fprintf(b.out, "  %-34s %-8s %16.6g  %d", m.name, m.Unit, m.Value, m.samples)
		if !b.o.trace {
			fmt.Fprintf(b.out, ", %.4f", m.spread)
		}
		fmt.Fprintln(b.out)
	}
	fmt.Fprintf(b.out, "  %-34s %-8s %16.6g  %d attempted\n", "run_error_rate", "frac",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	if b.o.trace {
		byMod, total := b.cpuByModule()
		fmt.Fprintf(b.out, "  cpu profile: %d samples; tracer %.3f of them, unattributed %.3f\n", total,
			ratio(float64(byMod["bench"]), float64(total)), ratio(float64(byMod["other"]), float64(total)))
		fmt.Fprintf(b.out, "  spans: %d in the last traced repetition\n", b.spans)
	}
	for i, r := range b.reps {
		fmt.Fprintf(b.out, "  repetition %d plant %d traced=%v: run %.6fs cpu %.6fs = %.1f msg/s, %d GC cycles, digest %s\n",
			i, r.plant, r.traced, r.runS, r.cpuS, float64(b.w.Bursts*b.w.BurstMsgs)/r.cpuS, r.gcCycles, r.digest)
	}
	for j, d := range b.digests {
		if d == "" {
			continue // not measured in this run
		}
		var c counters
		for _, r := range b.reps {
			if r.plant == j {
				c = r.c
				break
			}
		}
		fmt.Fprintf(b.out, "  plant %d seed=%d simulated: orders=%d tick-to-trade p50=%.3fus p99=%.3fus digest=%s\n",
			j, plantSeed(b.o.seed, j), c.orders, float64(c.ttP50)/float64(sim.Microsecond), float64(c.ttP99)/float64(sim.Microsecond), d)
	}
}

// writeArtifacts writes a traced repetition's spans and CPU profile under
// the output directory.
func (b *bench) writeArtifacts(tr *tracer, cpuProfile []byte) error {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.w.Name, b.o.seed))
	if err := tr.writeSpans(base + ".spans"); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", cpuProfile, 0o644); err != nil {
		return fmt.Errorf("write cpu profile: %w", err)
	}
	return nil
}
