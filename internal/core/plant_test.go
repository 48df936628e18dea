package core

import (
	"testing"

	"tradenet/internal/sim"
)

// TestPlantSessionIndexing checks the invariant Plant.redial relies on: it
// addresses client i's session by index on whichever venue is live, so
// every design must accept exactly one exchange session per client, in
// client order — and, with the HA pair armed, the standby's replicated
// session table must line up with the primary's.
func TestPlantSessionIndexing(t *testing.T) {
	for _, ha := range []bool{false, true} {
		sc := SmallScenario()
		sc.OEResilience = true
		sc.ExchangeHA = ha
		for _, build := range designPlants {
			p := build(sc)
			// Session opens reach the standby over the journal link; let
			// them land (liveness timers re-arm forever, hence RunUntil).
			p.Sched.RunUntil(sim.Time(sim.Millisecond))

			n := len(p.ExSessions)
			if n == 0 || len(p.clients()) != n || p.Ex.NumSessions() != n {
				t.Fatalf("%s ha=%v: %d clients, %d ExSessions, %d exchange sessions",
					p.Name, ha, len(p.clients()), n, p.Ex.NumSessions())
			}
			for i, es := range p.ExSessions {
				if p.Ex.SessionAt(i) != es {
					t.Fatalf("%s ha=%v: Ex.SessionAt(%d) is not ExSessions[%d]", p.Name, ha, i, i)
				}
			}
			if (p.HA != nil) != ha {
				t.Fatalf("%s: HA built = %v, want %v", p.Name, p.HA != nil, ha)
			}
			if ha && p.HA.Backup.NumSessions() != n {
				t.Fatalf("%s: standby has %d sessions, primary %d", p.Name, p.HA.Backup.NumSessions(), n)
			}
		}
	}
}
