package core

import (
	"fmt"

	"tradenet/internal/device"
	"tradenet/internal/feed"
	"tradenet/internal/firm"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// Design2 is §4.2: exchange and trading machines hosted in a cloud whose
// fabric equalizes latency across tenants. Normalization is folded into the
// cloud-hosted exchange (it publishes the internal format directly), per
// the cloud-exchange proposals the paper cites; each tenant runs a strategy
// directly against that feed.
//
// HA.OnPromote swaps both equalizers' standby ports so tenant traffic
// re-steers to the promoted venue.
type Design2 struct {
	Plant
	EqMD   *device.CloudEqualizer
	EqOE   *device.CloudEqualizer
	OutMap *mcast.Map

	// arrivals[ipID][tenant] records market-data delivery times for skew
	// analysis; the zero Time means "not delivered to this tenant" (nothing
	// arrives at t=0 — every path charges positive latency).
	arrivals map[uint16][]sim.Time
}

// NewDesign2 builds the cloud plant with the given per-tenant path
// latencies (zone placement). equalize toggles the fairness fabric.
func NewDesign2(sc Scenario, tenantLat []sim.Duration, equalize bool) *Design2 {
	d := &Design2{Plant: newPlant("Design 2 (cloud)", sc), arrivals: make(map[uint16][]sim.Time)}
	d.OutMap = mcast.NewMap(mcast.NewPartitioner(d.U, mcast.ByHash, sc.InternalPartitions), mcast.NewAllocator(2))

	cfg := device.DefaultCloudConfig()
	cfg.Equalize = equalize
	d.EqMD = device.NewCloudEqualizer(d.Sched, "cloud-md", tenantLat, cfg)
	d.EqOE = device.NewCloudEqualizer(d.Sched, "cloud-oe", tenantLat, cfg)

	d.Ex = d.newExchange("CLOUD-EXCH", feed.Internal, d.OutMap, idExchange)
	netsim.Connect(d.Ex.MDNIC().Port, d.EqMD.ExchangePort(), units.Rate10G, 0)
	netsim.Connect(d.Ex.OENIC().Port, d.EqOE.ExchangePort(), units.Rate10G, 0)

	if sc.OEResilience {
		d.Ex.EnableResilience(oeExchangeResilience())
	}
	if sc.ExchangeHA {
		// The standby hangs off provisioned-but-inactive equalizer ports;
		// promotion swaps them into the exchange slot so tenant unicasts and
		// feed multicasts re-steer without the tenants re-addressing.
		bak := d.newExchange("CLOUD-EXCH-B", feed.Internal, d.OutMap, idExchangeBak)
		netsim.Connect(bak.MDNIC().Port, d.EqMD.AddStandbyPort(), units.Rate10G, 0)
		netsim.Connect(bak.OENIC().Port, d.EqOE.AddStandbyPort(), units.Rate10G, 0)
		d.pair(bak)
		d.HA.OnPromote = func() {
			d.EqMD.PromoteStandby()
			d.EqOE.PromoteStandby()
		}
	}
	for i := 0; i < len(tenantLat); i++ {
		// Every tenant takes the full feed: fairness is only observable on
		// data everyone receives.
		s := firm.NewStrategy(d.Sched, d.U, fmt.Sprintf("tenant%d", i), uint32(idStrategy+2*i),
			d.OutMap, firm.StrategyConfig{DecisionLatency: sc.FnLatency})
		netsim.Connect(s.MDNIC().Port, d.EqMD.TenantPort(i+1), units.Rate10G, 0)
		netsim.Connect(s.OENIC().Port, d.EqOE.TenantPort(i+1), units.Rate10G, 0)

		// Wrap the MD handler to record per-datagram arrival for skew.
		tenant := i
		inner := s.MDNIC().OnFrame
		s.MDNIC().OnFrame = func(n *netsim.NIC, f *netsim.Frame) {
			var uf pkt.UDPFrame
			if err := pkt.ParseUDPFrame(f.Data, &uf); err == nil {
				m := d.arrivals[uf.IP.ID]
				if m == nil {
					m = make([]sim.Time, len(tenantLat))
					d.arrivals[uf.IP.ID] = m
				}
				m[tenant] = d.Sched.Now()
			}
			inner(n, f)
		}

		// Cloud tenants talk straight to the exchange: no gateway tier.
		port := uint16(42000 + i)
		addr := s.OENIC().Addr(port)
		s.ConnectGateway(port, d.accept(addr))
		if sc.OEResilience {
			hardenTenant(s, d.redial(i, addr))
		}
		d.Strats = append(d.Strats, s)
	}
	d.finish()
	return d
}

// MeasureRoundTrip mirrors the other designs' measurement; the path is
// exchange → cloud fabric → strategy → cloud fabric → exchange, one
// software hop.
func (d *Design2) MeasureRoundTrip(bursts int) RoundTrip {
	return d.measure(bursts, RoundTrip{
		SwitchHops:   0,
		SoftwareHops: 1,
		SoftwareTime: d.Scenario.FnLatency,
	})
}

// SkewStats summarizes cross-tenant delivery skew: for every datagram seen
// by at least two tenants, max arrival minus min arrival.
func (d *Design2) SkewStats() (maxSkew sim.Duration, samples int) {
	for _, byTenant := range d.arrivals {
		var lo, hi sim.Time
		n := 0
		for _, at := range byTenant {
			if at == 0 {
				continue
			}
			if n == 0 {
				lo, hi = at, at
			} else {
				if at < lo {
					lo = at
				}
				if at > hi {
					hi = at
				}
			}
			n++
		}
		if n < 2 {
			continue
		}
		samples++
		if s := hi.Sub(lo); s > maxSkew {
			maxSkew = s
		}
	}
	return maxSkew, samples
}
