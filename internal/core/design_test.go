package core

import (
	"testing"

	"tradenet/internal/device"
	"tradenet/internal/sim"
)

func TestScenarioShapes(t *testing.T) {
	p := PaperScenario()
	if p.Servers() < 950 || p.Servers() > 1050 {
		t.Fatalf("paper scenario servers = %d, want ~1000", p.Servers())
	}
	if p.FnLatency >= 2*sim.Microsecond+1 {
		t.Fatal("software functions must be ≤2µs")
	}
	s := SmallScenario()
	if s.Servers() >= p.Servers() {
		t.Fatal("small scenario should be smaller")
	}
}

func TestBuildUniverse(t *testing.T) {
	u := buildUniverse(30)
	if u.Len() != 30 {
		t.Fatalf("len = %d", u.Len())
	}
	// Tickers span multiple first letters for ByAlpha partitioning.
	letters := map[byte]bool{}
	for _, in := range u.All() {
		letters[in.Ticker[0]] = true
	}
	if len(letters) < 20 {
		t.Fatalf("letter diversity = %d", len(letters))
	}
}

func TestSubscriptionSlice(t *testing.T) {
	subs := subscriptionSlice(0, 64)
	if len(subs) != 16 {
		t.Fatalf("window = %d, want 16 (a quarter)", len(subs))
	}
	for _, p := range subs {
		if p < 0 || p >= 64 {
			t.Fatalf("partition %d out of range", p)
		}
	}
	if len(subscriptionSlice(5, 2)) != 1 {
		t.Fatal("tiny partition count should give 1")
	}
}

func TestDesign1RoundTripShape(t *testing.T) {
	d := NewDesign1(SmallScenario(), device.DefaultCommodityConfig())
	rt := d.MeasureRoundTrip(4)
	if rt.Orders == 0 || len(rt.Samples) == 0 {
		t.Fatal("no orders completed the loop")
	}
	if rt.SwitchHops != 12 || rt.SoftwareHops != 3 {
		t.Fatalf("hops = %d/%d", rt.SwitchHops, rt.SoftwareHops)
	}
	mean := rt.Mean()
	// Floor: 3 software hops (6µs) + 12 switch hops (6µs).
	if mean < 11*sim.Microsecond {
		t.Fatalf("mean RT = %v, below physical floor", mean)
	}
	if mean > 500*sim.Microsecond {
		t.Fatalf("mean RT = %v, implausibly slow", mean)
	}
	// §4.1's punchline: network is roughly half the total.
	share := rt.NetworkShare()
	if share < 0.35 || share > 0.75 {
		t.Fatalf("network share = %.2f, want ≈0.5", share)
	}
}

func TestDesign3RoundTripBeatsDesign1(t *testing.T) {
	sc := SmallScenario()
	d1 := NewDesign1(sc, device.DefaultCommodityConfig())
	rt1 := d1.MeasureRoundTrip(4)
	d3 := NewDesign3(sc, 0)
	rt3 := d3.MeasureRoundTrip(4)
	if rt3.Orders == 0 {
		t.Fatal("design 3 completed no orders")
	}
	if rt3.Mean() >= rt1.Mean() {
		t.Fatalf("L1S (%v) should beat leaf-spine (%v)", rt3.Mean(), rt1.Mean())
	}
	// The network component should be ~2 orders of magnitude smaller
	// (§4.3); serialization is common to both, so compare network time.
	n1, n3 := rt1.NetworkTime(), rt3.NetworkTime()
	if n3 <= 0 || n1 <= 0 {
		t.Fatalf("network times: %v vs %v", n1, n3)
	}
	ratio := float64(n1) / float64(n3)
	if ratio < 3 {
		t.Fatalf("network-time ratio = %.1f, L1S should be far faster", ratio)
	}
}

func TestDesign3MergeAccounting(t *testing.T) {
	sc := SmallScenario()
	d := NewDesign3(sc, 0)
	merges := d.MergePorts()
	// Strategies' partitions span both normalizers → their single NICs are
	// merge outputs; gateways and the exchange port merge many sources.
	if merges["norm-strat"] == 0 {
		t.Fatalf("expected merge ports on norm-strat: %v", merges)
	}
	if merges["gw-ex"] == 0 {
		t.Fatalf("expected merge on gw-ex: %v", merges)
	}
	// Subscription caps eliminate merging at the cost of partitions.
	dCapped := NewDesign3(sc, 1)
	capped := dCapped.MergePorts()
	if capped["norm-strat"] != 0 {
		t.Fatalf("maxSubs=1 should remove norm-strat merges: %v", capped)
	}
	for _, subs := range dCapped.NormSubs {
		if len(subs) > 1 {
			t.Fatal("cap violated")
		}
	}
}

func TestDesign2EqualizationFairness(t *testing.T) {
	sc := SmallScenario()
	lats := cloudTenantLats()

	dEq := NewDesign2(sc, lats, true)
	rtEq := dEq.MeasureRoundTrip(4)
	maxSkew, samples := dEq.SkewStats()
	if samples == 0 {
		t.Fatal("no skew samples")
	}
	if maxSkew != 0 {
		t.Fatalf("equalized skew = %v, want 0", maxSkew)
	}

	dRaw := NewDesign2(sc, lats, false)
	rtRaw := dRaw.MeasureRoundTrip(4)
	rawSkew, _ := dRaw.SkewStats()
	if rawSkew != 15*sim.Microsecond {
		t.Fatalf("unequalized skew = %v, want 15µs (20-5)", rawSkew)
	}
	// Fairness costs latency: the equalized plant is slower.
	if rtEq.Orders == 0 || rtRaw.Orders == 0 {
		t.Fatal("cloud designs completed no orders")
	}
	if rtEq.Mean() <= rtRaw.Mean() {
		t.Fatalf("equalized (%v) should be slower than raw (%v)", rtEq.Mean(), rtRaw.Mean())
	}
	// Cloud base latency dominates: round trips are tens of µs up.
	if rtEq.Mean() < 100*sim.Microsecond {
		t.Fatalf("equalized cloud RT = %v, should reflect 2×(50µs+20µs) fabric", rtEq.Mean())
	}
}

func TestDesignsAreDeterministic(t *testing.T) {
	sc := SmallScenario()
	a := NewDesign1(sc, device.DefaultCommodityConfig()).MeasureRoundTrip(3)
	b := NewDesign1(sc, device.DefaultCommodityConfig()).MeasureRoundTrip(3)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Samples[i], b.Samples[i])
		}
	}
}
