package main

import (
	"time"

	"tradenet/internal/orderentry"
	"tradenet/internal/sim"
)

// burstRun is the deadline-bounded burst run every workload shares. It
// publishes Bursts bursts of BurstMsgs messages on the open-loop schedule
// and attributes each accepted order to the most recent burst, exactly as
// core's MeasureRoundTrip does. Unlike MeasureRoundTrip it stops at a fixed
// virtual deadline, so it also terminates when liveness timers re-arm
// forever.
type burstRun struct {
	p        *plant
	w        Workload
	deadline sim.Time

	burstAt sim.Time
	// ticks are the tick-to-trade samples: order accepted at the exchange
	// minus the publish instant of the burst it answers (simulated time).
	ticks []sim.Duration

	// tr is nil on timed runs; a traced run also times its PublishBurst
	// calls and samples the journal follower's lag at each accepted order.
	tr        *tracer
	publishNs int64
	lagSum    uint64
	lagN      uint64
}

// arm hooks order capture and schedules every burst on p. It is part of
// set-up; nothing runs until run.
func arm(p *plant, w Workload, s Schedule, tr *tracer) *burstRun {
	r := &burstRun{p: p, w: w, deadline: s.deadline(w.Bursts), tr: tr}
	p.ex.OnOrderAccepted = func(_ *orderentry.Msg, at sim.Time) {
		r.ticks = append(r.ticks, at.Sub(r.burstAt))
		if r.tr != nil && p.ha != nil {
			r.lagSum += p.ha.Journal.Records - p.ha.Follower.Applied
			r.lagN++
		}
	}
	for b := 0; b < w.Bursts; b++ {
		p.sched.At(s.burstAt(b), func() { r.burst(b) })
	}
	return r
}

func (r *burstRun) burst(b int) {
	r.burstAt = r.p.sched.Now()
	if r.tr == nil {
		r.p.ex.PublishBurst(r.p.sched.Rand(), r.w.BurstMsgs)
		return
	}
	r.tr.burst = int32(b)
	t0 := time.Now()
	r.p.ex.PublishBurst(r.p.sched.Rand(), r.w.BurstMsgs)
	r.publishNs += int64(time.Since(t0))
}

// run executes the plant up to the deadline.
func (r *burstRun) run() { r.p.sched.RunUntil(r.deadline) }

// msgs is the number of market-data messages the benchmark asked PublishBurst
// for: the unit every per-message figure is normalised by.
func (r *burstRun) msgs() int { return r.w.Bursts * r.w.BurstMsgs }
