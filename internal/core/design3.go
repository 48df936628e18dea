package core

import (
	"fmt"

	"tradenet/internal/feed"
	"tradenet/internal/firm"
	"tradenet/internal/mcast"
	"tradenet/internal/sim"
	"tradenet/internal/topo"
)

// Design3 is §4.3: four Layer-1 circuit-switch networks, one per leg of the
// loop. Fan-out happens at wire speed (~5 ns); anywhere multiple sources
// share a consumer NIC, the merge unit adds 50 ns and introduces the
// contention the paper warns about.
//
// With Scenario.ExchangeHA the standby's NICs join networks 1 and 4 as
// extra circuit endpoints; until promotion they transmit nothing.
type Design3 struct {
	Plant
	Fabric *topo.L1Fabric

	RawMap *mcast.Map
	OutMap *mcast.Map

	// NormSubs[i] is the set of normalizer indices strategy i subscribes
	// to; with one L1S NIC per strategy, |NormSubs[i]| > 1 implies merging.
	NormSubs [][]int
}

// NewDesign3 builds the four-network L1S plant. maxSubs caps the number of
// normalizer feeds a strategy may take ("a practical workaround for NIC
// proliferation is to restrict the total number of normalizers each trading
// strategy can subscribe to"); 0 means all.
func NewDesign3(sc Scenario, maxSubs int) *Design3 {
	d := &Design3{Plant: newPlant("Design 3 (L1S)", sc)}
	cfg := topo.DefaultL1FabricConfig()
	cfg.Ports = 2*sc.Servers() + 16
	d.Fabric = topo.NewL1Fabric(d.Sched, cfg)

	d.RawMap = mcast.NewMap(mcast.NewPartitioner(d.U, mcast.ByAlpha, 0), mcast.NewAllocator(1))
	d.OutMap = mcast.NewMap(mcast.NewPartitioner(d.U, mcast.ByHash, sc.InternalPartitions), mcast.NewAllocator(2))

	d.Ex = d.newExchange("EXCH", feed.ExchangeB, d.RawMap, idExchange)

	// Network 1: exchange → normalizers. Pure fan-out; the L1S replicates
	// the raw feed to every normalizer's NIC, which filters by group. Each
	// normalizer owns internal partitions p with p % Normalizers == i, so
	// the fleet divides the normalization work without duplication.
	exIn := d.Fabric.AttachSource(d.Fabric.ExToNorm, d.Ex.MDNIC())
	var normOuts []int
	for i := 0; i < sc.Normalizers; i++ {
		i := i
		n := firm.NewNormalizer(d.Sched, d.U, fmt.Sprintf("norm%d", i), uint32(idNormalizer+2*i),
			feed.ExchangeB, d.RawMap, d.OutMap, firm.NormalizerConfig{
				ProcLatency:    sc.FnLatency,
				PartitionOwned: func(p int) bool { return p%sc.Normalizers == i },
			})
		normOuts = append(normOuts, d.Fabric.AttachSink(d.Fabric.ExToNorm, n.RawNIC()))
		d.Norms = append(d.Norms, n)
	}
	d.Fabric.Deliver(d.Fabric.ExToNorm, exIn, normOuts...)

	// Network 2: normalizers → strategies. A strategy's partitions are
	// owned by several normalizers, but it has one MD NIC: every feed
	// beyond the first must merge onto that NIC (§4.3's trade). maxSubs
	// caps the feeds taken; capped-away partitions are simply not received
	// — the reduced-partitioning cost the paper describes.
	normIns := make([]int, sc.Normalizers)
	for i, n := range d.Norms {
		normIns[i] = d.Fabric.AttachSource(d.Fabric.NormToStrat, n.PubNIC())
	}
	normFanouts := make([][]int, sc.Normalizers)
	for i := 0; i < sc.Strategies; i++ {
		subs := subscriptionSlice(i, sc.InternalPartitions)
		s := firm.NewStrategy(d.Sched, d.U, fmt.Sprintf("strat%d", i), uint32(idStrategy+2*i),
			d.OutMap, firm.StrategyConfig{DecisionLatency: sc.FnLatency, Subscriptions: subs})
		out := d.Fabric.AttachSink(d.Fabric.NormToStrat, s.MDNIC())
		var owners []int
		seen := map[int]bool{}
		for _, p := range subs {
			o := p % sc.Normalizers
			if !seen[o] {
				seen[o] = true
				owners = append(owners, o)
			}
		}
		if maxSubs > 0 && len(owners) > maxSubs {
			owners = owners[:maxSubs]
		}
		for _, o := range owners {
			normFanouts[o] = append(normFanouts[o], out)
		}
		d.NormSubs = append(d.NormSubs, owners)
		d.Strats = append(d.Strats, s)
	}
	for i, outs := range normFanouts {
		if len(outs) > 0 {
			d.Fabric.Deliver(d.Fabric.NormToStrat, normIns[i], outs...)
		}
	}

	// Network 3: strategies → gateways (merge many strategies onto each
	// gateway NIC) and the reverse circuits for responses.
	gwInPorts := make([]int, sc.Gateways)
	for i := 0; i < sc.Gateways; i++ {
		g := firm.NewGateway(d.Sched, fmt.Sprintf("gw%d", i), uint32(idGateway+2*i),
			firm.GatewayConfig{TranslateLatency: sc.FnLatency})
		d.Gws = append(d.Gws, g)
		gwInPorts[i] = d.Fabric.AttachSink(d.Fabric.StratToGw, g.InNIC())
	}
	for i, s := range d.Strats {
		in := d.Fabric.AttachSource(d.Fabric.StratToGw, s.OENIC())
		gw := i % sc.Gateways
		d.Fabric.Deliver(d.Fabric.StratToGw, in, gwInPorts[gw])
		// Reverse: gateway responses fan out to its strategies' NICs, which
		// filter by MAC (an L1S cannot address individual consumers).
		prev := d.Fabric.Circuits(d.Fabric.StratToGw)[gwInPorts[gw]]
		d.Fabric.Deliver(d.Fabric.StratToGw, gwInPorts[gw], append(prev, in)...)
	}

	// Network 4: gateways → exchange, and responses back.
	exOE := d.Fabric.AttachSink(d.Fabric.GwToEx, d.Ex.OENIC())
	var gwExPorts []int
	for _, g := range d.Gws {
		in := d.Fabric.AttachSource(d.Fabric.GwToEx, g.ExNIC())
		gwExPorts = append(gwExPorts, in)
		d.Fabric.Deliver(d.Fabric.GwToEx, in, exOE)
	}
	d.Fabric.Deliver(d.Fabric.GwToEx, exOE, gwExPorts...)

	if sc.ExchangeHA {
		// The standby joins the feed and order networks as a second set of
		// circuit endpoints. Its MD source shares the normalizers' sink NICs
		// (which therefore become merge outputs — the §4.3 contention cost of
		// a second source), and each gateway's order circuit also reaches the
		// standby's OE NIC, which filters by MAC until clients re-home to it.
		bak := d.newExchange("EXCH-B", feed.ExchangeB, d.RawMap, idExchangeBak)
		bakIn := d.Fabric.AttachSource(d.Fabric.ExToNorm, bak.MDNIC())
		d.Fabric.Deliver(d.Fabric.ExToNorm, bakIn, normOuts...)
		bakOE := d.Fabric.AttachSink(d.Fabric.GwToEx, bak.OENIC())
		for _, in := range gwExPorts {
			prev := d.Fabric.Circuits(d.Fabric.GwToEx)[in]
			d.Fabric.Deliver(d.Fabric.GwToEx, in, append(prev, bakOE)...)
		}
		d.Fabric.Deliver(d.Fabric.GwToEx, bakOE, gwExPorts...)
		d.pair(bak)
	}

	d.wireGateways()
	d.finish()
	return d
}

// MeasureRoundTrip mirrors Design1's measurement over the L1S fabric. The
// loop crosses 4 L1S hops (5 ns each, plus 50 ns at each merge stage).
func (d *Design3) MeasureRoundTrip(bursts int) RoundTrip {
	cfg := d.Fabric.Config().Switch
	// The order-side legs (strategy→gateway, gateway→exchange) always pass
	// merge units; the feed legs are pure fan-out unless strategies merge
	// normalizer feeds.
	merges := 2
	if len(d.NormSubs) > 0 && len(d.NormSubs[0]) > 1 {
		merges++
	}
	return d.measure(bursts, RoundTrip{
		SwitchHops:    4,
		SoftwareHops:  3,
		SoftwareTime:  3 * d.Scenario.FnLatency,
		SwitchLatency: 4*cfg.FanoutLatency + sim.Duration(merges)*cfg.MergeLatency,
	})
}

// MergePorts reports how many merge outputs each of the four networks has.
func (d *Design3) MergePorts() map[string]int {
	count := func(sw interface{ IsMergeOutput(int) bool }, n int) int {
		c := 0
		for i := 0; i < n; i++ {
			if sw.IsMergeOutput(i) {
				c++
			}
		}
		return c
	}
	n := d.Fabric.Config().Ports
	return map[string]int{
		"ex-norm":    count(d.Fabric.ExToNorm, n),
		"norm-strat": count(d.Fabric.NormToStrat, n),
		"strat-gw":   count(d.Fabric.StratToGw, n),
		"gw-ex":      count(d.Fabric.GwToEx, n),
	}
}
