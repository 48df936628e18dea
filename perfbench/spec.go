package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"tradenet/internal/sim"
)

// specJSON fixes every workload's plant shape, burst schedule and run
// length, plus the recorded digests. It is the one place they are set.
//
//go:embed spec.json
var specJSON []byte

// Workload is one plant shape and burst schedule.
type Workload struct {
	Name         string `json:"name"`
	Design       int    `json:"design"`
	Strategies   int    `json:"strategies"`
	Normalizers  int    `json:"normalizers"`
	Gateways     int    `json:"gateways"`
	Partitions   int    `json:"partitions"`
	Tenants      int    `json:"tenants"`
	BurstMsgs    int    `json:"burst_msgs"`
	Bursts       int    `json:"bursts"`
	OEResilience bool   `json:"oe_resilience"`
	ExchangeHA   bool   `json:"exchange_ha"`
	// Plants is how many independent plants one run measures, each from its
	// own seed derived from the run's seed (see plantSeed). Per-message
	// costs vary with the seed; summing over several plants keeps one
	// seed's luck from setting a run's figures.
	Plants int `json:"plants"`
	// Digests maps a run seed, in decimal, to the simulated-output digest
	// each of its plants must produce.
	Digests map[string][]string `json:"digests"`
}

// Schedule is the open-loop burst timing shared by every workload.
type Schedule struct {
	FirstBurstUs int64 `json:"first_burst_us"`
	BurstGapUs   int64 `json:"burst_gap_us"`
	DrainUs      int64 `json:"drain_us"`
}

func (s Schedule) firstBurst() sim.Time    { return sim.Time(s.FirstBurstUs * int64(sim.Microsecond)) }
func (s Schedule) gap() sim.Duration       { return sim.Duration(s.BurstGapUs) * sim.Microsecond }
func (s Schedule) drain() sim.Duration     { return sim.Duration(s.DrainUs) * sim.Microsecond }
func (s Schedule) burstAt(b int) sim.Time  { return s.firstBurst().Add(sim.Duration(b) * s.gap()) }
func (s Schedule) deadline(n int) sim.Time { return s.burstAt(n - 1).Add(s.drain()) }

// Spec is the parsed spec.json.
type Spec struct {
	Schedule  Schedule   `json:"schedule"`
	Workloads []Workload `json:"workloads"`
}

func loadSpec() (Spec, error) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("parse spec.json: %w", err)
	}
	return s, nil
}

// workload returns the named workload.
func (s Spec) workload(name string) (Workload, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}
