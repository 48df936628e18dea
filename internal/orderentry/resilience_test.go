package orderentry

import (
	"testing"

	"tradenet/internal/market"
	"tradenet/internal/sim"
)

// wire is a synchronous byte pipe with per-direction kill switches — the
// minimal transport for exercising liveness, replay, and retry without a
// network stack. Sequence gaps on a cut-then-restored direction are
// expected (that is what Relogon heals), so ErrSeqGap is tolerated.
type wire struct {
	cutToExch   bool
	cutToClient bool
}

func resilientPair(w *wire) (*ClientSession, *ExchangeSession) {
	var c *ClientSession
	var e *ExchangeSession
	c = NewClientSession(func(b []byte) {
		if w.cutToExch {
			return
		}
		if err := e.Receive(b); err != nil && err != ErrSeqGap {
			panic(err)
		}
	})
	e = NewExchangeSession(func(b []byte) {
		if w.cutToClient {
			return
		}
		if err := c.Receive(b); err != nil && err != ErrSeqGap {
			panic(err)
		}
	})
	return c, e
}

// wireEngine gives the exchange session a one-book matching engine, so acks
// and fills flow. Returns a per-client-order-id count of engine arrivals —
// the ground truth for idempotency assertions.
func wireEngine(e *ExchangeSession) map[uint64]int {
	book := market.NewBook(1)
	var nextID market.OrderID = 1
	arrivals := map[uint64]int{}
	exIDs := map[uint64]market.OrderID{}
	e.OnNew = func(m *Msg) {
		arrivals[m.OrderID]++
		exID := nextID
		nextID++
		exIDs[m.OrderID] = exID
		e.Ack(m.OrderID, uint64(exID))
		for _, fl := range book.Add(market.Order{ID: exID, Symbol: m.Symbol, Side: m.Side, Price: m.Price, Qty: m.Qty}) {
			e.Fill(m.OrderID, fl.Qty, fl.Price)
		}
	}
	e.OnCancel = func(m *Msg) {
		if eid, ok := exIDs[m.OrderID]; ok && book.Cancel(eid) {
			e.CancelAck(m.OrderID)
			return
		}
		e.CancelReject(m.OrderID)
	}
	return arrivals
}

func TestLivenessDetectsSilentPeer(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := &wire{}
	c, e := resilientPair(w)
	cfg := LivenessConfig{Interval: 100 * sim.Microsecond, MissLimit: 3}
	c.StartLiveness(sched, cfg)
	e.Harden(sched, ExchangeResilience{Liveness: cfg})
	var cDead, eDead sim.Time
	c.OnPeerDead = func() { cDead = sched.Now() }
	e.OnPeerDead = func() { eDead = sched.Now() }
	c.Logon()

	cutAt := sim.Time(1 * sim.Millisecond)
	sched.At(cutAt, func() { w.cutToExch, w.cutToClient = true, true })
	sched.RunUntil(sim.Time(3 * sim.Millisecond))

	if !c.Dead() || !e.Dead() {
		t.Fatalf("dead: client=%v exchange=%v", c.Dead(), e.Dead())
	}
	if c.SessionsDropped != 1 || e.SessionsDropped != 1 {
		t.Fatalf("drops: client=%d exchange=%d", c.SessionsDropped, e.SessionsDropped)
	}
	// Death lands after the silence deadline but within one extra interval
	// of it (detection granularity is the heartbeat tick).
	deadline := cfg.deadline()
	for name, at := range map[string]sim.Time{"client": cDead, "exchange": eDead} {
		if at.Sub(cutAt) <= deadline || at.Sub(cutAt) > deadline+2*cfg.Interval {
			t.Fatalf("%s death at %v (cut at %v, deadline %v)", name, at, cutAt, deadline)
		}
	}
}

func TestLivenessHeartbeatsKeepIdleSessionAlive(t *testing.T) {
	sched := sim.NewScheduler(1)
	c, e := resilientPair(&wire{})
	cfg := LivenessConfig{Interval: 100 * sim.Microsecond, MissLimit: 3}
	c.StartLiveness(sched, cfg)
	e.Harden(sched, ExchangeResilience{Liveness: cfg})
	c.Logon()
	// No application traffic at all: heartbeats alone must keep both ends
	// alive for many deadlines.
	sched.RunUntil(sim.Time(10 * sim.Millisecond))
	if c.Dead() || e.Dead() {
		t.Fatalf("idle session died: client=%v exchange=%v", c.Dead(), e.Dead())
	}
}

func TestReconnectReplayRestoresView(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := &wire{}
	c, e := resilientPair(w)
	arrivals := wireEngine(e)
	cfg := LivenessConfig{Interval: 100 * sim.Microsecond, MissLimit: 3}
	e.Harden(sched, ExchangeResilience{Liveness: cfg, RetainResponses: 64, Idempotent: true})
	c.StartLiveness(sched, cfg)
	c.EnableRetry(sched, RetryConfig{AckTimeout: 200 * sim.Microsecond})
	c.Logon()
	c.NewOrder(1, 1, market.Buy, 1000, 10)
	c.NewOrder(2, 1, market.Buy, 990, 10)

	sched.At(sim.Time(500*sim.Microsecond), func() { w.cutToExch, w.cutToClient = true, true })
	// Submitted into the dead transport: never reaches the venue, must be
	// resubmitted by the post-replay reconciliation sweep.
	sched.At(sim.Time(510*sim.Microsecond), func() { c.NewOrder(3, 1, market.Buy, 980, 10) })
	sched.At(sim.Time(2*sim.Millisecond), func() {
		w.cutToExch, w.cutToClient = false, false
		c.Relogon()
	})
	sched.RunUntil(sim.Time(4 * sim.Millisecond))

	if arrivals[3] != 1 {
		t.Fatalf("order 3 reached the engine %d times, want exactly 1", arrivals[3])
	}
	if st, ok := c.Order(3); !ok || !st.Acked {
		t.Fatalf("order 3 not acked after reconcile: %+v ok=%v", st, ok)
	}
	if c.Resubmits == 0 {
		t.Fatal("reconcile resubmitted nothing")
	}
	if e.ReplayedMsgs == 0 {
		t.Fatal("resync replayed nothing (exchange heartbeats during the cut were retained)")
	}
	if got, want := c.OpenIDs(), []uint64{1, 2, 3}; len(got) != len(want) ||
		got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("client view after recovery = %v, want %v", got, want)
	}
	if !c.LoggedOn() || c.Dead() {
		t.Fatalf("session not re-established: logged=%v dead=%v", c.LoggedOn(), c.Dead())
	}
}

func TestIdempotentResubmitSuppressed(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := &wire{}
	c, e := resilientPair(w)
	arrivals := wireEngine(e)
	e.Harden(sched, ExchangeResilience{RetainResponses: 64, Idempotent: true})
	c.EnableRetry(sched, RetryConfig{AckTimeout: 100 * sim.Microsecond, MaxResubmits: 5})
	c.Logon()

	// The client→exchange direction stays up; only acks are lost. Every
	// ack-timeout resubmit reaches the venue and must be absorbed, not
	// re-executed.
	sched.At(0, func() {
		w.cutToClient = true
		c.NewOrder(1, 1, market.Buy, 1000, 10)
	})
	sched.At(sim.Time(800*sim.Microsecond), func() {
		w.cutToClient = false
		c.Relogon() // heal the torn response sequence
	})
	sched.RunUntil(sim.Time(2 * sim.Millisecond))

	if arrivals[1] != 1 {
		t.Fatalf("order 1 reached the engine %d times, want exactly 1", arrivals[1])
	}
	if c.Resubmits < 2 {
		t.Fatalf("resubmits = %d, want >= 2", c.Resubmits)
	}
	if e.DupSuppressed < 2 {
		t.Fatalf("duplicates suppressed = %d, want >= 2", e.DupSuppressed)
	}
	if st, ok := c.Order(1); !ok || !st.Acked {
		t.Fatalf("order 1 not acked after recovery: %+v ok=%v", st, ok)
	}
	if c.OrdersUnknown != 0 {
		t.Fatalf("orders escalated = %d, want 0", c.OrdersUnknown)
	}
}

func TestRetryEscalatesUnknownAfterMaxResubmits(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := &wire{}
	c, e := resilientPair(w)
	wireEngine(e)
	e.Harden(sched, ExchangeResilience{Idempotent: true})
	c.EnableRetry(sched, RetryConfig{AckTimeout: 100 * sim.Microsecond, MaxResubmits: 2})
	var unknown []uint64
	c.OnOrderUnknown = func(id uint64) { unknown = append(unknown, id) }
	c.Logon()
	sched.At(0, func() {
		w.cutToClient = true // acks never arrive; resubmits exhaust
		c.NewOrder(7, 1, market.Buy, 1000, 10)
	})
	sched.RunUntil(sim.Time(5 * sim.Millisecond))

	if len(unknown) != 1 || unknown[0] != 7 {
		t.Fatalf("unknown escalations = %v, want [7]", unknown)
	}
	if c.OrdersUnknown != 1 {
		t.Fatalf("OrdersUnknown = %d", c.OrdersUnknown)
	}
	if c.Resubmits != 2 {
		t.Fatalf("resubmits = %d, want exactly MaxResubmits", c.Resubmits)
	}
	if len(c.OpenIDs()) != 0 {
		t.Fatalf("escalated order still in working set: %v", c.OpenIDs())
	}
}

func TestTokenBucketShedsSubmitBurst(t *testing.T) {
	sched := sim.NewScheduler(1)
	c, e := resilientPair(&wire{})
	wireEngine(e)
	e.Harden(sched, ExchangeResilience{Bucket: BucketConfig{Capacity: 2, Refill: sim.Millisecond}})
	var busy []uint64
	c.OnReject = func(id uint64, r RejectReason) {
		if r != RejectBusy {
			t.Fatalf("order %d rejected with %v, want RejectBusy", id, r)
		}
		busy = append(busy, id)
	}
	c.Logon()
	sched.At(0, func() {
		for id := uint64(1); id <= 5; id++ {
			c.NewOrder(id, 1, market.Buy, 1000, 10)
		}
	})
	// 2.5 ms later two tokens have refilled: the next submit is admitted.
	sched.At(sim.Time(2500*sim.Microsecond), func() { c.NewOrder(6, 1, market.Buy, 1000, 10) })
	sched.RunUntil(sim.Time(3 * sim.Millisecond))

	if e.BusyRejects != 3 || len(busy) != 3 {
		t.Fatalf("busy rejects = %d (client saw %d), want 3", e.BusyRejects, len(busy))
	}
	if st, ok := c.Order(6); !ok || !st.Acked {
		t.Fatalf("post-refill order not admitted: %+v ok=%v", st, ok)
	}
	if got := c.OpenIDs(); len(got) != 3 { // 1, 2 from the burst, plus 6
		t.Fatalf("working set = %v, want 3 admitted orders", got)
	}
}

func TestResyncRefusedWhenRetainWindowRolled(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := &wire{}
	c, e := resilientPair(w)
	wireEngine(e)
	e.Harden(sched, ExchangeResilience{RetainResponses: 2, Idempotent: true})
	c.Logon()
	// The client misses four acks but the exchange retained only the last
	// two: the resync cannot be honored and the session must be closed.
	w.cutToClient = true
	for id := uint64(1); id <= 4; id++ {
		c.NewOrder(id, 1, market.Buy, 1000, 10)
	}
	w.cutToClient = false
	c.Relogon()
	if e.ResyncRefused != 1 {
		t.Fatalf("resyncs refused = %d, want 1", e.ResyncRefused)
	}
	if c.LoggedOn() {
		t.Fatal("client still logged on after a refused resync")
	}
}

func TestLogoutReachesExchange(t *testing.T) {
	c, e := resilientPair(&wire{})
	wireEngine(e)
	var loggedOut bool
	e.OnLogout = func() { loggedOut = true }
	c.Logon()
	c.NewOrder(1, 1, market.Buy, 1000, 10)
	c.Logout()
	if !loggedOut {
		t.Fatal("exchange OnLogout not fired")
	}
	if e.LoggedOn() {
		t.Fatal("exchange still considers the session logged on")
	}
}

func TestOverfillCounterFlagsDuplicateExecution(t *testing.T) {
	c, e := resilientPair(&wire{})
	e.OnNew = func(m *Msg) { e.Ack(m.OrderID, 1) }
	c.Logon()
	c.NewOrder(1, 1, market.Buy, 1000, 10)
	e.Fill(1, 8, 1000)
	if c.Overfills != 0 {
		t.Fatalf("overfills = %d after partial fill", c.Overfills)
	}
	// A second 8-lot against a 10-lot order is the duplicate-execution
	// signature the failover invariant watches for.
	e.Fill(1, 8, 1000)
	if c.Overfills != 1 {
		t.Fatalf("overfills = %d, want 1", c.Overfills)
	}
	if _, ok := c.Order(1); ok {
		t.Fatal("overfilled order should be closed")
	}
}

// TestPeerDeathOnceAndRelogonRearms drives each end's shared liveness core
// into peer-death by silence, by Drop, and by silence then Drop: the death
// is declared exactly once, leaves no tick pending, and a relogon re-arms
// heartbeats.
func TestPeerDeathOnceAndRelogonRearms(t *testing.T) {
	cfg := LivenessConfig{Interval: 100 * sim.Microsecond, MissLimit: 3}
	const (
		cutAt   = sim.Time(1 * sim.Millisecond)
		lateAt  = sim.Time(2500 * sim.Microsecond) // after death by silence
		probeAt = sim.Time(2900 * sim.Microsecond)
		healAt  = sim.Time(3 * sim.Millisecond)
	)
	for _, side := range []string{"client", "exchange"} {
		for _, tc := range []struct {
			name      string
			cut, drop bool
		}{
			{"silence", true, false},
			{"drop", false, true},
			{"silence+drop", true, true},
		} {
			t.Run(side+"/"+tc.name, func(t *testing.T) {
				sched := sim.NewScheduler(1)
				w := &wire{}
				c, e := resilientPair(w)
				e.Harden(sched, ExchangeResilience{Liveness: cfg, RetainResponses: 64})
				c.StartLiveness(sched, cfg)
				ep := &c.endpoint
				if side == "exchange" {
					ep = &e.endpoint
				}
				deaths, pending := 0, false
				ep.OnPeerDead = func() { deaths++ }
				c.Logon()
				if tc.cut {
					sched.At(cutAt, func() { w.cutToExch, w.cutToClient = true, true })
				}
				if tc.drop {
					at := cutAt
					if tc.cut {
						at = lateAt
					}
					sched.At(at, func() {
						ep.Drop()
						pending = ep.liveTick.Pending()
					})
				}
				sched.RunUntil(probeAt)
				if deaths != 1 || ep.SessionsDropped != 1 || !ep.Dead() || ep.LoggedOn() {
					t.Fatalf("after death: OnPeerDead fired %d times, dropped=%d dead=%v logged=%v",
						deaths, ep.SessionsDropped, ep.Dead(), ep.LoggedOn())
				}
				if pending || ep.liveTick.Pending() {
					t.Fatal("liveness tick still pending on a dead session")
				}

				sched.At(healAt, func() {
					w.cutToExch, w.cutToClient = false, false
					c.Relogon()
				})
				sched.RunUntil(healAt.Add(sim.Millisecond))
				seq := ep.seqOut
				sched.RunUntil(healAt.Add(3 * sim.Millisecond))
				if !ep.LoggedOn() || ep.Dead() || !ep.liveTick.Pending() {
					t.Fatalf("after relogon: logged=%v dead=%v tick pending=%v",
						ep.LoggedOn(), ep.Dead(), ep.liveTick.Pending())
				}
				// The session is idle: only heartbeats advance its sequence.
				if ep.seqOut == seq {
					t.Fatal("no heartbeats after relogon")
				}
				if deaths != 1 || ep.SessionsDropped != 1 {
					t.Fatalf("relogon re-declared death: fired %d, dropped=%d", deaths, ep.SessionsDropped)
				}
			})
		}
	}
}
