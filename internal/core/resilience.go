// Order-entry resilience wiring: one shared parameter set applied to all
// three designs when Scenario.OEResilience is set, so the failover
// experiment compares network shapes rather than tuning choices.
package core

import (
	"tradenet/internal/exchange"
	"tradenet/internal/firm"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// Shared order-entry resilience parameters. The liveness deadline
// (Interval × MissLimit = 1.5 ms) sits under the burst spacing so a
// mid-burst session cut is detected before the next burst; the reconnect
// delay models a deliberate back-off (a real gateway re-resolves, re-dials,
// and re-authenticates before it is allowed back in).
const (
	// oeHeartbeat / oeMissLimit: heartbeat every 500 µs, declared dead
	// after three silent intervals.
	oeHeartbeat = 500 * sim.Microsecond
	oeMissLimit = 3

	// oeAckTimeout..oeMaxResubmits: first resubmit after 400 µs, backing
	// off ×2 per attempt to 3.2 ms, escalated as unknown after 4 attempts.
	oeAckTimeout    = 400 * sim.Microsecond
	oeMaxAckTimeout = 3200 * sim.Microsecond
	oeMaxResubmits  = 4

	// oeReconnectDelay / oeRequoteDelay: redial 5 ms after peer-death;
	// halted strategies re-enter the market after 4 ms.
	oeReconnectDelay = 5 * sim.Millisecond
	oeRequoteDelay   = 4 * sim.Millisecond

	// oeRetainResponses bounds the exchange's replay ring per session. At
	// SmallScenario burst rates a session sees well under this many
	// responses across an outage, so resyncs replay rather than refuse.
	oeRetainResponses = 1024

	// oeBucketCap / oeBucketRefill: per-session ingress budget — a burst
	// of 24 on top of a sustained one message per 30 µs. Sized so the
	// legacy burst load clears but a reconnect's reconcile storm sheds.
	oeBucketCap    = 24
	oeBucketRefill = 30 * sim.Microsecond

	// oeStreamMaxRTO / oeStreamDeadAfter: transport retransmits back off
	// ×2 to 3.2 ms and the stream is declared dead after 8 silent rounds.
	oeStreamMaxRTO    = 3200 * sim.Microsecond
	oeStreamDeadAfter = 8
)

// oeLiveness / oeRetry are the session-level knobs shared by every
// hardened endpoint.
func oeLiveness() orderentry.LivenessConfig {
	return orderentry.LivenessConfig{Interval: oeHeartbeat, MissLimit: oeMissLimit}
}

func oeRetry() orderentry.RetryConfig {
	return orderentry.RetryConfig{
		AckTimeout:    oeAckTimeout,
		MaxAckTimeout: oeMaxAckTimeout,
		MaxResubmits:  oeMaxResubmits,
	}
}

// oeExchangeResilience is the exchange-side configuration: liveness with
// cancel-on-disconnect, a replay ring, idempotent resubmission, and
// per-session ingress shedding. Pass to Exchange.EnableResilience before
// any AcceptSession.
func oeExchangeResilience() exchange.Resilience {
	return exchange.Resilience{
		Session: orderentry.ExchangeResilience{
			Liveness:        oeLiveness(),
			RetainResponses: oeRetainResponses,
			Idempotent:      true,
			Bucket:          orderentry.BucketConfig{Capacity: oeBucketCap, Refill: oeBucketRefill},
		},
		StreamMaxRTO:    oeStreamMaxRTO,
		StreamDeadAfter: oeStreamDeadAfter,
	}
}

// oeSession is the client-session hardening shared by a gateway and a
// tenant that holds its exchange session directly. reconnect provisions the
// replacement endpoint a redial dials (Plant.redial).
func oeSession(reconnect func() pkt.UDPAddr) firm.SessionResilience {
	return firm.SessionResilience{
		Liveness:        oeLiveness(),
		Retry:           oeRetry(),
		ReconnectDelay:  oeReconnectDelay,
		Reconnect:       reconnect,
		StreamMaxRTO:    oeStreamMaxRTO,
		StreamDeadAfter: oeStreamDeadAfter,
	}
}

// hardenGateway arms a gateway's exchange-facing session.
func hardenGateway(g *firm.Gateway, reconnect func() pkt.UDPAddr) {
	g.HardenExchangeSession(oeSession(reconnect))
}

// hardenStrategyBehindGateway arms only the market-exit behavior: the
// gateway owns the exchange session, so the strategy's job is to stop
// quoting when the gateway reports the path down (RejectSessionDown /
// RejectBusy) and re-enter on the requote timer. No liveness: the
// gateway-side strategy sessions never heartbeat, so arming a deadline
// here would declare a healthy peer dead.
func hardenStrategyBehindGateway(s *firm.Strategy) {
	s.EnableResilience(firm.StrategyResilience{RequoteDelay: oeRequoteDelay})
}

// hardenTenant arms a cloud tenant that holds its exchange session
// directly: the full gateway treatment (liveness, retry, reconnect with
// replay) plus the strategy's quote halt.
func hardenTenant(s *firm.Strategy, reconnect func() pkt.UDPAddr) {
	s.EnableResilience(firm.StrategyResilience{
		SessionResilience: oeSession(reconnect),
		RequoteDelay:      oeRequoteDelay,
	})
}
