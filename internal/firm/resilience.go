// Firm-side order-entry resilience: an oeClient hardens its session
// (liveness, ack-timeout resubmission, reconnect with sequence resync); the
// gateway escalates unrecoverable orders to their owners; strategies halt
// quoting when their order path degrades and re-enter deterministically.
// Everything is opt-in — an unhardened gateway or strategy behaves exactly
// as before.
package firm

import (
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// SessionResilience parameterizes the hardening of an order-entry client
// session: the gateway's session to the exchange, or a cloud tenant's.
type SessionResilience struct {
	// Liveness arms heartbeats and peer-death detection toward the peer.
	Liveness orderentry.LivenessConfig
	// Retry arms ack-timeout resubmission with capped exponential backoff.
	Retry orderentry.RetryConfig
	// ReconnectDelay is how long after peer-death the client waits before
	// dialing back in.
	ReconnectDelay sim.Duration
	// Reconnect provisions a replacement endpoint at the exchange and
	// returns the new address to dial (core wires it to ReacceptSession).
	// Nil disables reconnection: the session stays dead.
	Reconnect func() pkt.UDPAddr
	// StreamMaxRTO / StreamDeadAfter harden the transport (exponential RTO
	// backoff, connection-dead detection).
	StreamMaxRTO    sim.Duration
	StreamDeadAfter int
}

// harden arms cfg on the session and its transport.
func (c *oeClient) harden(cfg SessionResilience) {
	c.res = &cfg
	c.session.OnPeerDead = c.onPeerDead
	if cfg.Retry.AckTimeout > 0 {
		c.session.EnableRetry(c.sched, cfg.Retry)
	}
	c.hardenStream()
	if cfg.Liveness.Interval > 0 {
		c.session.StartLiveness(c.sched, cfg.Liveness)
	}
}

func (c *oeClient) hardenStream() {
	c.stream.MaxRTO = c.res.StreamMaxRTO
	c.stream.DeadAfter = c.res.StreamDeadAfter
	if c.res.StreamDeadAfter > 0 {
		// A transport death converges on the same peer-death path liveness
		// uses; declarePeerDead is idempotent, whichever fires first wins.
		c.stream.OnDead = c.session.Drop
	}
}

// DropSession models the local side of an order-entry cut (fault
// injection): the transport dies instantly and the session tears down
// without waiting for the liveness deadline.
func (c *oeClient) DropSession() {
	c.stream.Kill()
	c.session.Drop()
}

// onPeerDead runs at the exact virtual instant the peer is declared
// unreachable: the owner's down hook, then retire the transport and
// schedule the redial.
func (c *oeClient) onPeerDead() {
	if c.down != nil {
		c.down()
	}
	c.stream.Kill()
	if c.res.Reconnect == nil {
		return
	}
	c.sched.AfterArgs(c.res.ReconnectDelay, sim.PrioControl, reconnectArgs, c, nil)
}

// reconnectArgs adapts the redial to the scheduler's closure-free callback
// shape.
func reconnectArgs(a, _ any) { a.(*oeClient).reconnect() }

// reconnect dials the replacement endpoint and resumes the session on it:
// same local port (the remote port changed, so the mux key is fresh),
// sequence resync via Relogon, orders reconciled off the replay.
func (c *oeClient) reconnect() {
	c.openStream(c.res.Reconnect())
	c.hardenStream()
	c.Reconnects++
	c.session.Relogon()
}

// HardenExchangeSession arms resilience on the exchange-facing session.
// Call after ConnectExchange.
func (g *Gateway) HardenExchangeSession(cfg SessionResilience) {
	g.session.OnOrderUnknown = g.escalateUnknown
	g.harden(cfg)
}

// FaultName identifies the gateway in a fault plan's event log.
func (g *Gateway) FaultName() string { return g.host.Name }

// escalateUnknown tells an order's owner that its fate is unknowable: the
// exchange session died and resubmission was exhausted. The id mappings are
// dropped so a late cancel resolves as unknown rather than dangling.
func (g *Gateway) escalateUnknown(exID uint64) {
	ref, ok := g.byExID[exID]
	if !ok {
		return
	}
	delete(g.byExID, exID)
	delete(g.toExID, ref)
	delete(g.exchIDs, exID)
	g.Unknowns++
	ref.sess.Reject(ref.id, orderentry.RejectSessionDown)
}

// ---------------------------------------------------------------------------
// Strategy resilience

// StrategyResilience parameterizes a strategy's order-path hardening. The
// session-level knobs matter when the strategy speaks to the exchange
// directly (the cloud design); behind a gateway the halt/requote behavior is
// the active part.
type StrategyResilience struct {
	SessionResilience
	// RequoteDelay is how long the strategy stays out of the market after a
	// session-down signal before quoting again. Zero keeps it halted until
	// the session re-logs-on.
	RequoteDelay sim.Duration
}

// EnableResilience arms order-path hardening. Call after ConnectGateway.
func (s *Strategy) EnableResilience(cfg StrategyResilience) {
	s.requoteDelay = cfg.RequoteDelay
	s.down = s.haltQuoting
	sess := s.session
	sess.OnOrderUnknown = func(uint64) {
		s.UnknownOrders++
		s.haltQuoting()
	}
	sess.OnReject = func(_ uint64, r orderentry.RejectReason) {
		// A busy venue or a dead session both mean the same thing to a
		// market maker: trust in the order path is gone, stop quoting.
		if r == orderentry.RejectSessionDown || r == orderentry.RejectBusy {
			s.haltQuoting()
		}
	}
	sess.OnLogon = func() { s.resumeQuoting() }
	s.harden(cfg.SessionResilience)
}

// FaultName identifies the strategy in a fault plan's event log.
func (s *Strategy) FaultName() string { return s.host.Name }

// haltQuoting takes the strategy out of the market; with a RequoteDelay it
// re-enters on a timer, otherwise on the next logon.
func (s *Strategy) haltQuoting() {
	if s.halted {
		return
	}
	s.halted = true
	s.Halts++
	if s.requoteDelay > 0 {
		s.sched.AfterArgs(s.requoteDelay, sim.PrioControl, requoteArgs, s, nil)
	}
}

// requoteArgs adapts the requote timer to the scheduler's closure-free
// callback shape.
func requoteArgs(a, _ any) { a.(*Strategy).resumeQuoting() }

func (s *Strategy) resumeQuoting() {
	if !s.halted {
		return
	}
	s.halted = false
	s.Resumes++
}
