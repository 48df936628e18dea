package core

import (
	"tradenet/internal/device"
	"tradenet/internal/exchange"
	"tradenet/internal/fault"
	"tradenet/internal/feed"
	"tradenet/internal/firm"
	"tradenet/internal/market"
	"tradenet/internal/mcast"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// Plant is what §4's three designs share: the exchange (and its HA
// standby), the firm's normalizers, strategies and gateways, their
// order-entry sessions, and the opt-in WAN mirror and telemetry planes.
// Each design embeds a Plant and adds only its fabric; the wiring steps
// below are the plant's, defined once.
//
// Construction order is part of the output: exchange ports, session
// indexes, MACs and event sequence numbers all follow the order in which
// venues are built, NICs attached and sessions accepted.
type Plant struct {
	Name     string // the design's report label
	Scenario Scenario
	Sched    *sim.Scheduler
	U        *market.Universe
	Ex       *exchange.Exchange
	Norms    []*firm.Normalizer // nil in the cloud design
	Strats   []*firm.Strategy
	Gws      []*firm.Gateway // nil in the cloud design

	// ExSessions[i] is the exchange's side of client i's order-entry
	// session (gateway i, or cloud tenant i) — the handle failover
	// experiments use to inspect ownership and working-order state. It is
	// also Ex.SessionAt(i): sessions are accepted in client order.
	ExSessions []*orderentry.ExchangeSession

	// WANFeed is the adaptive WAN redundancy mirror (nil unless
	// Scenario.WANRedundancy).
	WANFeed *WANFeed

	// HA is the exchange high-availability pair (nil unless
	// Scenario.ExchangeHA); HA.Backup is the dark standby, attached to the
	// fabric by the design.
	HA *HACluster

	// Tel is the telemetry plane (nil unless Scenario.Telemetry).
	Tel *Telemetry
}

// hostIDs: the exchange uses 100+, normalizers 1000+, strategies 10000+,
// gateways 50000+ — disjoint so derived MACs/IPs never collide.
const (
	idExchange   = 100
	idNormalizer = 1000
	idStrategy   = 10000
	idGateway    = 50000
)

// newPlant starts a plant: its scheduler (seeded from the scenario) and
// symbol universe.
func newPlant(name string, sc Scenario) Plant {
	return Plant{Name: name, Scenario: sc, Sched: sim.NewScheduler(sc.Seed), U: buildUniverse(sc.Symbols)}
}

// newExchange builds a venue on the plant's scheduler and universe.
func (p *Plant) newExchange(name string, v *feed.Variant, m *mcast.Map, hostID uint32) *exchange.Exchange {
	return exchange.New(p.Sched, p.U, m, exchange.Config{
		ID: 1, Name: name, Variant: v, MatchLatency: 0, HostID: hostID,
	})
}

// pair makes bak, already attached to the fabric, the primary's dark
// standby. Call before any order-entry session is accepted, so the session
// table replicates from its first entry.
func (p *Plant) pair(bak *exchange.Exchange) {
	if p.Scenario.OEResilience {
		bak.EnableResilience(oeExchangeResilience())
	}
	p.HA = NewHACluster(p.Sched, p.Ex, bak)
}

// accept opens the exchange side of a client's order-entry session,
// records it in ExSessions, and returns the exchange endpoint to dial.
func (p *Plant) accept(clientAddr pkt.UDPAddr) pkt.UDPAddr {
	sess, exPort := p.Ex.AcceptSession(clientAddr)
	p.ExSessions = append(p.ExSessions, sess)
	return p.Ex.OENIC().Addr(exPort)
}

// redial is the reconnect hook of client idx: it provisions a replacement
// endpoint on whichever venue is live at redial time. Both machines of an
// HA pair allocate session indexes in accept order, so idx addresses the
// same logical session on either — after a failover the same hook lands
// the client on the promoted standby's twin session.
func (p *Plant) redial(idx int, clientAddr pkt.UDPAddr) func() pkt.UDPAddr {
	return func() pkt.UDPAddr {
		ex := p.Ex
		if p.HA != nil {
			ex = p.HA.Active()
		}
		return ex.OENIC().Addr(ex.ReacceptSession(ex.SessionAt(idx), clientAddr))
	}
}

// wireGateways dials every order-entry session of a gateway tier:
// gateways to the exchange, strategies to gateways round-robin.
func (p *Plant) wireGateways() {
	hard := p.Scenario.OEResilience
	if hard {
		p.Ex.EnableResilience(oeExchangeResilience())
	}
	for i, g := range p.Gws {
		port := uint16(41000 + i)
		addr := g.ExNIC().Addr(port)
		g.ConnectExchange(port, p.accept(addr))
		if hard {
			hardenGateway(g, p.redial(i, addr))
		}
	}
	for i, s := range p.Strats {
		g := p.Gws[i%len(p.Gws)]
		gwPort := g.AcceptStrategy(s.OENIC().Addr(uint16(42000 + i)))
		s.ConnectGateway(uint16(42000+i), g.InNIC().Addr(gwPort))
		if hard {
			hardenStrategyBehindGateway(s)
		}
	}
}

// finish builds the opt-in planes that hang off a complete plant — the WAN
// mirror, then telemetry over the exchange and HA counters.
func (p *Plant) finish() {
	if p.Scenario.WANRedundancy {
		p.WANFeed = NewWANFeed(p.Sched, p.Ex, DefaultWANFeedConfig())
	}
	p.Tel = newTelemetry(p.Sched, p.Scenario.Telemetry)
	p.Tel.RegisterExchange(p.Ex)
	p.Tel.RegisterHA(p.HA)
}

// clients returns the client side of every order-entry session, index
// aligned with ExSessions: the gateways' exchange sessions, or the cloud
// tenants' own.
func (p *Plant) clients() []*orderentry.ClientSession {
	var cs []*orderentry.ClientSession
	if p.Gws == nil {
		for _, s := range p.Strats {
			cs = append(cs, s.Session())
		}
		return cs
	}
	for _, g := range p.Gws {
		cs = append(cs, g.ExchangeSession())
	}
	return cs
}

// firstClient is the holder of session 0 — the fault experiments' victim.
func (p *Plant) firstClient() fault.SessionDropper {
	if p.Gws == nil {
		return p.Strats[0]
	}
	return p.Gws[0]
}

// sessionCounters sums redials and unknown-order escalations over whoever
// owns the exchange sessions: the gateways, or the cloud tenants.
func (p *Plant) sessionCounters() (reconnects, unknowns uint64) {
	if p.Gws == nil {
		for _, s := range p.Strats {
			reconnects += s.Reconnects
			unknowns += s.UnknownOrders
		}
		return reconnects, unknowns
	}
	for _, g := range p.Gws {
		reconnects += g.Reconnects
		unknowns += g.Unknowns
	}
	return reconnects, unknowns
}

// sessionTally is the end-of-run reconciliation of the clients' sessions
// against one exchange's view of them.
type sessionTally struct {
	viewMismatch int // sessions whose client working-order set differs from the exchange's
	orphans      int // resting orders no session owns
	// Client side.
	overfills, resubmits uint64
	// Exchange side.
	replayed, dupSuppressed, busyRejects uint64
}

// reconcile compares each client session with ex's session at the same
// index — the primary's, or after a failover the promoted standby's.
func (p *Plant) reconcile(ex *exchange.Exchange) sessionTally {
	var t sessionTally
	for _, ins := range p.U.All() {
		if bk, ok := ex.LookupBook(ins.ID); ok {
			t.orphans += bk.Orders()
		}
	}
	for i, cs := range p.clients() {
		es := ex.SessionAt(i)
		w := ex.WorkingOrders(es)
		t.orphans -= len(w)
		if !equalIDs(w, cs.OpenIDs()) {
			t.viewMismatch++
		}
		t.overfills += cs.Overfills
		t.resubmits += cs.Resubmits
		t.replayed += es.ReplayedMsgs
		t.dupSuppressed += es.DupSuppressed
		t.busyRejects += es.BusyRejects
	}
	return t
}

// measure runs the shared burst-publish / order-capture loop: after a
// settle-in period (logons), it publishes `bursts` isolated message bursts
// 2 ms apart and attributes each accepted order to the most recent burst.
// rt carries the design's static path description; measure stamps the
// design name and fills the samples. A non-nil telemetry plane is armed
// over the whole measurement span; nil costs one compare inside Arm and the
// schedule is untouched.
func (p *Plant) measure(bursts int, rt RoundTrip) RoundTrip {
	rt.Design = p.Name
	sched, ex := p.Sched, p.Ex
	var burstAt sim.Time
	ex.OnOrderAccepted = func(_ *orderentry.Msg, at sim.Time) {
		rt.Orders++
		rt.Samples = append(rt.Samples, at.Sub(burstAt))
	}
	start := sim.Time(5 * sim.Millisecond) // let logons drain
	p.Tel.Arm(0, start.Add(sim.Duration(bursts)*2*sim.Millisecond))
	for b := 0; b < bursts; b++ {
		at := start.Add(sim.Duration(b) * 2 * sim.Millisecond)
		sched.At(at, func() {
			burstAt = sched.Now()
			rt.Bursts = append(rt.Bursts, burstAt)
			ex.PublishBurst(sched.Rand(), p.Scenario.BurstMessages/bursts)
		})
	}
	sched.Run()
	return rt
}

// cloudTenantLats is the cloud design's standard zone placement: three
// tenants at 5, 20 and 12 µs from the fabric.
func cloudTenantLats() []sim.Duration {
	return []sim.Duration{5 * sim.Microsecond, 20 * sim.Microsecond, 12 * sim.Microsecond}
}

// designPlants builds each design's standard plant, in report order — the
// table the fault experiments sweep.
var designPlants = []func(Scenario) *Plant{
	func(sc Scenario) *Plant { return &NewDesign1(sc, device.DefaultCommodityConfig()).Plant },
	func(sc Scenario) *Plant { return &NewDesign2(sc, cloudTenantLats(), true).Plant },
	func(sc Scenario) *Plant { return &NewDesign3(sc, 0).Plant },
}
