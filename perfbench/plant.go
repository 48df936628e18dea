package main

import (
	"tradenet/internal/core"
	"tradenet/internal/device"
	"tradenet/internal/exchange"
	"tradenet/internal/firm"
	"tradenet/internal/netsim"
	"tradenet/internal/sim"
)

// Layer indexes the modules a traced span is charged to.
type Layer uint8

const (
	layerSwitch     Layer = iota // device: a switch port's Owner.HandleFrame
	layerNIC                     // netsim: a host port's Owner (NIC demux)
	layerStrategy                // firm: Strategy.onFrame via NIC.OnFrame
	layerNormalizer              // firm: Normalizer.onFrame via NIC.OnFrame
	layerOrderEntry              // orderentry: session streams via NIC.OnFrame
	numLayers
)

var layerNames = [numLayers]string{"device.switch", "netsim.nic", "firm.strategy", "firm.normalizer", "orderentry"}

// roleNIC is one host NIC together with the layer its OnFrame, if it has
// one, belongs to.
type roleNIC struct {
	nic   *netsim.NIC
	layer Layer
}

// plant is one built design, reduced to what the burst run, the digest and the
// tracer need. Every slice is in construction order, so walks over it are
// deterministic.
type plant struct {
	sched  *sim.Scheduler
	ex     *exchange.Exchange
	ha     *core.HACluster
	strats []*firm.Strategy
	nics   []roleNIC
	// switchPorts are every port owned by a switching device, connected or
	// not.
	switchPorts []*netsim.Port
	// forwarded and softForwarded read the devices' forwarding counters.
	forwarded     func() uint64
	softForwarded func() uint64
	// drains reports whether a quiet plant empties its event queue: false
	// when liveness timers re-arm forever.
	drains bool
}

// ports returns every switch port, then every host NIC's port.
func (p *plant) ports() []*netsim.Port {
	out := append([]*netsim.Port(nil), p.switchPorts...)
	for _, rn := range p.nics {
		out = append(out, rn.nic.Port)
	}
	return out
}

// scenario returns the core.Scenario a workload runs under seed.
func (w Workload) scenario(seed int64) core.Scenario {
	sc := core.SmallScenario()
	sc.Strategies = w.Strategies
	sc.Normalizers = w.Normalizers
	sc.Gateways = w.Gateways
	sc.InternalPartitions = w.Partitions
	sc.BurstMessages = w.BurstMsgs * w.Bursts
	sc.OEResilience = w.OEResilience
	sc.ExchangeHA = w.ExchangeHA
	sc.Seed = seed
	return sc
}

// tenantLatencies spreads n cloud tenants' path latencies evenly over
// 5-24 µs.
func tenantLatencies(n int) []sim.Duration {
	lats := make([]sim.Duration, n)
	for i := range lats {
		lats[i] = 5*sim.Microsecond + sim.Duration(i)*19*sim.Microsecond/sim.Duration(max(n-1, 1))
	}
	return lats
}

// buildPlant constructs the workload's design and starts the HA pair, if
// any. It schedules nothing else.
func buildPlant(w Workload, seed int64) *plant {
	sc := w.scenario(seed)
	var p *plant
	switch w.Design {
	case 1:
		p = fromDesign1(core.NewDesign1(sc, device.DefaultCommodityConfig()))
	case 2:
		p = fromDesign2(core.NewDesign2(sc, tenantLatencies(w.Tenants), true))
	case 3:
		p = fromDesign3(core.NewDesign3(sc, 0))
	default:
		panic("perfbench: unknown design")
	}
	p.drains = !w.OEResilience && !w.ExchangeHA
	if p.ha != nil {
		p.ha.Start()
	}
	return p
}

// addFirm records the NICs of the firm's software tiers.
func (p *plant) addFirm(norms []*firm.Normalizer, strats []*firm.Strategy, gws []*firm.Gateway) {
	p.strats = strats
	for _, n := range norms {
		p.nics = append(p.nics, roleNIC{n.RawNIC(), layerNormalizer}, roleNIC{n.PubNIC(), layerOrderEntry})
	}
	for _, s := range strats {
		p.nics = append(p.nics, roleNIC{s.MDNIC(), layerStrategy}, roleNIC{s.OENIC(), layerOrderEntry})
	}
	for _, g := range gws {
		p.nics = append(p.nics, roleNIC{g.InNIC(), layerOrderEntry}, roleNIC{g.ExNIC(), layerOrderEntry})
	}
}

// addExchanges records the venue NICs: the primary and, with HA, the
// standby.
func (p *plant) addExchanges(ex *exchange.Exchange, ha *core.HACluster) {
	p.ex, p.ha = ex, ha
	venues := []*exchange.Exchange{ex}
	if ha != nil {
		venues = append(venues, ha.Backup)
	}
	for _, v := range venues {
		p.nics = append(p.nics, roleNIC{v.MDNIC(), layerOrderEntry}, roleNIC{v.OENIC(), layerOrderEntry})
	}
}

func fromDesign1(d *core.Design1) *plant {
	p := &plant{sched: d.Sched}
	p.addExchanges(d.Ex, d.HA)
	p.addFirm(d.Norms, d.Strats, d.Gws)
	sws := append(append([]*device.CommoditySwitch(nil), d.LS.Spines...), d.LS.Leaves...)
	for _, sw := range sws {
		for i := 0; i < sw.Ports(); i++ {
			p.switchPorts = append(p.switchPorts, sw.Port(i))
		}
	}
	p.forwarded = func() (n uint64) {
		for _, sw := range sws {
			n += sw.Forwarded
		}
		return n
	}
	p.softForwarded = func() (n uint64) {
		for _, sw := range sws {
			n += sw.SoftForwarded
		}
		return n
	}
	return p
}

func fromDesign2(d *core.Design2) *plant {
	p := &plant{sched: d.Sched}
	p.addExchanges(d.Ex, d.HA)
	p.addFirm(nil, d.Strats, nil)
	eqs := []*device.CloudEqualizer{d.EqMD, d.EqOE}
	for _, eq := range eqs {
		p.switchPorts = append(p.switchPorts, eq.ExchangePort())
		for i := 1; i <= eq.Tenants(); i++ {
			p.switchPorts = append(p.switchPorts, eq.TenantPort(i))
		}
	}
	if d.HA != nil {
		// The standby's equalizer ports are reachable only as its NICs'
		// peers.
		p.switchPorts = append(p.switchPorts, d.HA.Backup.MDNIC().Port.Peer(), d.HA.Backup.OENIC().Port.Peer())
	}
	p.forwarded = func() (n uint64) {
		for _, eq := range eqs {
			n += eq.Delivered
		}
		return n
	}
	p.softForwarded = func() uint64 { return 0 }
	return p
}

func fromDesign3(d *core.Design3) *plant {
	p := &plant{sched: d.Sched}
	p.addExchanges(d.Ex, d.HA)
	p.addFirm(d.Norms, d.Strats, d.Gws)
	sws := []*device.L1Switch{d.Fabric.ExToNorm, d.Fabric.NormToStrat, d.Fabric.StratToGw, d.Fabric.GwToEx}
	for _, sw := range sws {
		for i := 0; i < sw.Ports(); i++ {
			p.switchPorts = append(p.switchPorts, sw.Port(i))
		}
	}
	p.forwarded = func() (n uint64) {
		for _, sw := range sws {
			n += sw.Forwarded
		}
		return n
	}
	p.softForwarded = func() uint64 { return 0 }
	return p
}
