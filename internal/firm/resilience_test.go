package firm

import (
	"testing"

	"tradenet/internal/exchange"
	"tradenet/internal/feed"
	"tradenet/internal/mcast"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/units"
)

// TestDropSessionRedials cuts the order path of a gateway and of a tenant
// that holds its exchange session directly: after ReconnectDelay each
// redials once and logs back on, and the tenant halts quoting until the
// session is back.
func TestDropSessionRedials(t *testing.T) {
	const (
		dropAt = sim.Time(1 * sim.Millisecond)
		redial = 2 * sim.Millisecond
	)
	live := orderentry.LivenessConfig{Interval: 100 * sim.Microsecond, MissLimit: 3}
	for _, tenant := range []bool{false, true} {
		name := "gateway"
		if tenant {
			name = "tenant"
		}
		t.Run(name, func(t *testing.T) {
			sched := sim.NewScheduler(7)
			u := testUniverse()
			rawMap := mcast.NewMap(mcast.NewPartitioner(u, mcast.ByAlpha, 0), mcast.NewAllocator(1))
			ex := exchange.New(sched, u, rawMap, exchange.Config{
				ID: 1, Name: "EXCH", Variant: feed.ExchangeB,
				MatchLatency: sim.Microsecond, HostID: 100,
			})
			ex.EnableResilience(exchange.Resilience{Session: orderentry.ExchangeResilience{
				Liveness: live, RetainResponses: 64, Idempotent: true,
			}})

			var nic *netsim.NIC
			var strat *Strategy
			var gw *Gateway
			if tenant {
				outMap := mcast.NewMap(mcast.NewPartitioner(u, mcast.ByHash, 8), mcast.NewAllocator(2))
				strat = NewStrategy(sched, u, "tenant", 300, outMap, StrategyConfig{})
				nic = strat.OENIC()
			} else {
				gw = NewGateway(sched, "gw1", 400, GatewayConfig{TranslateLatency: sim.Microsecond})
				nic = gw.ExNIC()
			}
			netsim.Connect(nic.Port, ex.OENIC().Port, units.Rate10G, 200*sim.Nanosecond)
			sess, port := ex.AcceptSession(nic.Addr(41000))
			cfg := SessionResilience{
				Liveness:       live,
				ReconnectDelay: redial,
				Reconnect: func() pkt.UDPAddr {
					return ex.OENIC().Addr(ex.ReacceptSession(sess, nic.Addr(41000)))
				},
			}
			var c *oeClient
			if tenant {
				strat.ConnectGateway(41000, ex.OENIC().Addr(port))
				strat.EnableResilience(StrategyResilience{SessionResilience: cfg})
				c = &strat.oeClient
			} else {
				gw.ConnectExchange(41000, ex.OENIC().Addr(port))
				gw.HardenExchangeSession(cfg)
				c = &gw.oeClient
			}

			sched.At(dropAt, c.DropSession)
			sched.RunUntil(dropAt.Add(redial - sim.Microsecond))
			if !c.session.Dead() || c.Reconnects != 0 {
				t.Fatalf("before redial: dead=%v reconnects=%d", c.session.Dead(), c.Reconnects)
			}
			if tenant && (!strat.halted || strat.Halts != 1) {
				t.Fatalf("tenant not halted after drop: halted=%v halts=%d", strat.halted, strat.Halts)
			}

			sched.RunUntil(dropAt.Add(redial + sim.Millisecond))
			if c.Reconnects != 1 || !c.session.LoggedOn() || c.session.Dead() {
				t.Fatalf("after redial: reconnects=%d logged=%v dead=%v",
					c.Reconnects, c.session.LoggedOn(), c.session.Dead())
			}
			if tenant && (strat.halted || strat.Resumes != 1) {
				t.Fatalf("tenant did not resume: halted=%v resumes=%d", strat.halted, strat.Resumes)
			}
		})
	}
}
