package core

import (
	"fmt"

	"tradenet/internal/device"
	"tradenet/internal/feed"
	"tradenet/internal/firm"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/topo"
)

// Design1 is §4.1: a leaf-spine fabric of commodity switches with servers
// grouped by function per rack and a dedicated exchange leaf. The loop
// exchange→normalizer→strategy→gateway→exchange crosses 12 switch hops.
type Design1 struct {
	Plant
	LS *topo.LeafSpine

	RawMap *mcast.Map
	OutMap *mcast.Map

	// RecReaders parse gap-replay responses, one per normalizer (nil before
	// WireGapRecovery); their Recovered counters tally replayed messages.
	RecReaders []*feed.ResponseReader
	// GapRequests counts replay requests normalizers sent to the exchange.
	GapRequests uint64
}

// NewDesign1 builds the full plant. switchCfg overrides the generation
// (pass device.DefaultCommodityConfig() for current hardware).
func NewDesign1(sc Scenario, switchCfg device.CommoditySwitchConfig) *Design1 {
	d := &Design1{Plant: newPlant("Design 1 (leaf-spine)", sc)}

	// Rack plan: rack 1 normalizers, racks 2..k strategies, rack k+1
	// gateways ("group servers with common functions by rack", §4.1).
	perRack := 32
	stratRacks := (sc.Strategies + perRack - 1) / perRack
	cfg := topo.DefaultLeafSpineConfig()
	cfg.Switch = switchCfg
	cfg.Racks = 2 + stratRacks
	cfg.HostsPerRack = 2 * perRack // two NICs per server
	d.LS = topo.NewLeafSpine(d.Sched, cfg)

	d.RawMap = mcast.NewMap(mcast.NewPartitioner(d.U, mcast.ByAlpha, 0), mcast.NewAllocator(1))
	d.OutMap = mcast.NewMap(mcast.NewPartitioner(d.U, mcast.ByHash, sc.InternalPartitions), mcast.NewAllocator(2))

	d.Ex = d.newExchange("EXCH", feed.ExchangeB, d.RawMap, idExchange)
	d.LS.Attach(0, d.Ex.MDNIC())
	d.LS.Attach(0, d.Ex.OENIC())

	if sc.ExchangeHA {
		// The standby lives on the same exchange leaf (an HA pair shares the
		// facility; the journal rides a dedicated cross-connect, not the
		// fabric). Its NICs idle until promotion.
		bak := d.newExchange("EXCH-B", feed.ExchangeB, d.RawMap, idExchangeBak)
		d.LS.Attach(0, bak.MDNIC())
		d.LS.Attach(0, bak.OENIC())
		d.pair(bak)
	}

	// Normalizers on rack 1 (leaf index 1).
	for i := 0; i < sc.Normalizers; i++ {
		n := firm.NewNormalizer(d.Sched, d.U, fmt.Sprintf("norm%d", i), uint32(idNormalizer+2*i),
			feed.ExchangeB, d.RawMap, d.OutMap, firm.NormalizerConfig{ProcLatency: sc.FnLatency})
		d.LS.Attach(1, n.RawNIC())
		d.LS.Attach(1, n.PubNIC())
		for _, g := range d.RawMap.Groups() {
			d.LS.Join(g, n.RawNIC())
		}
		d.Norms = append(d.Norms, n)
	}

	// Gateways on the last rack.
	gwLeaf := cfg.Racks
	for i := 0; i < sc.Gateways; i++ {
		g := firm.NewGateway(d.Sched, fmt.Sprintf("gw%d", i), uint32(idGateway+2*i),
			firm.GatewayConfig{TranslateLatency: sc.FnLatency})
		d.LS.Attach(gwLeaf, g.InNIC())
		d.LS.Attach(gwLeaf, g.ExNIC())
		d.Gws = append(d.Gws, g)
	}

	// Strategies fill the middle racks; each subscribes to a slice of the
	// internal partitions and dials a gateway round-robin.
	for i := 0; i < sc.Strategies; i++ {
		subs := subscriptionSlice(i, sc.InternalPartitions)
		s := firm.NewStrategy(d.Sched, d.U, fmt.Sprintf("strat%d", i), uint32(idStrategy+2*i),
			d.OutMap, firm.StrategyConfig{DecisionLatency: sc.FnLatency, Subscriptions: subs, PullOnGap: sc.PullOnGap})
		leaf := 2 + i/perRack
		d.LS.Attach(leaf, s.MDNIC())
		d.LS.Attach(leaf, s.OENIC())
		for _, p := range subs {
			d.LS.Join(d.OutMap.GroupByIndex(p), s.MDNIC())
		}
		d.Strats = append(d.Strats, s)
	}

	d.wireGateways()
	d.finish()
	return d
}

// subscriptionSlice gives strategy i a contiguous window of 1/4 of the
// partitions ("some strategies only analyze a subset of the feed").
func subscriptionSlice(i, parts int) []int {
	w := parts / 4
	if w < 1 {
		w = 1
	}
	var subs []int
	for j := 0; j < w; j++ {
		subs = append(subs, (i*w+j)%parts)
	}
	return subs
}

// WireGapRecovery dials a gap-recovery stream from every normalizer to the
// exchange's replay service (over the fabric, on the normalizer's pub NIC)
// and hangs replay requests off the normalizers' gap handlers. Recovered
// messages re-enter the normalize path and are re-sequenced onto the
// internal feed — downstream consumers see late data instead of lost data,
// which is exactly the §2 sequenced-feed recovery contract.
func (d *Design1) WireGapRecovery() {
	for i, n := range d.Norms {
		n := n
		mux := netsim.NewStreamMux(n.PubNIC())
		localPort := uint16(46000 + i)
		exPort := d.Ex.AcceptRecoverySession(n.PubNIC().Addr(localPort))
		st := netsim.NewStream(n.PubNIC(), localPort, d.Ex.OENIC().Addr(exPort))
		mux.Register(st)
		rr := &feed.ResponseReader{}
		st.OnData = func(b []byte) { _ = rr.Read(b, n.ConsumeRecovered) }
		n.OnGap = func(gi feed.GapInfo) {
			d.GapRequests++
			st.Write(feed.AppendRecoveryRequest(nil, gi.Unit, gi.Expected, gi.Got))
		}
		d.RecReaders = append(d.RecReaders, rr)
	}
}

// MeasureRoundTrip publishes isolated market-data bursts and measures
// tick-to-trade at the exchange: order-accepted time minus burst publish
// time. Bursts are spaced far enough apart that attribution is exact.
func (d *Design1) MeasureRoundTrip(bursts int) RoundTrip {
	return d.measure(bursts, RoundTrip{
		SwitchHops:    12,
		SoftwareHops:  3,
		SoftwareTime:  3 * d.Scenario.FnLatency,
		SwitchLatency: 12 * d.LS.Config().Switch.Latency,
	})
}
