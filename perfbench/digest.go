package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// digest hashes the run's simulated outputs: tick-to-trade samples, accepted
// orders, executions, input messages, port tx and drops, NIC filtered
// counts, switch forwarded counts, strategy MsgsIn/OrdersSent and journal
// records and bytes. It leaves out scheduler-internal counters (fired
// events, wheel placements), so a change that only speeds the simulator up
// keeps the digest.
func (r *burstRun) digest() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	p := r.p
	put(uint64(r.msgs()))
	put(p.ex.PublishedMsgs)
	put(uint64(len(r.ticks)))
	for _, t := range r.ticks {
		put(uint64(t))
	}
	put(p.ex.Executions)
	if p.ha != nil {
		put(p.ha.Backup.Executions)
		put(p.ha.Journal.Records)
		put(p.ha.Journal.Bytes)
	}
	for _, port := range p.ports() {
		put(port.TxFrames)
		put(port.Drops)
	}
	for _, n := range p.nics {
		put(n.nic.Filtered)
	}
	put(p.forwarded())
	put(p.softForwarded())
	for _, s := range p.strats {
		put(s.MsgsIn)
		put(s.OrdersSent)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// quiesce checks what must hold once the run has drained, on any seed:
// the clock reached the deadline, nothing was dropped, every strategy saw
// the feed, every strategy order was accepted, the standby applied the
// whole journal, and a plant without liveness timers has emptied its
// event queue.
func (r *burstRun) quiesce() error {
	p := r.p
	if now := p.sched.Now(); now != r.deadline {
		return fmt.Errorf("clock at %d ps, want deadline %d ps", int64(now), int64(r.deadline))
	}
	if p.ex.PublishedMsgs < uint64(r.msgs()) {
		return fmt.Errorf("exchange published %d messages, the benchmark asked for %d", p.ex.PublishedMsgs, r.msgs())
	}
	var drops uint64
	for _, port := range p.ports() {
		drops += port.Drops
	}
	if drops != 0 {
		return fmt.Errorf("%d frames dropped at port queues", drops)
	}
	var sent uint64
	for _, s := range p.strats {
		if s.MsgsIn == 0 {
			return fmt.Errorf("strategy %s received no market data", s.MDNIC().Port.Name)
		}
		sent += s.OrdersSent
	}
	if sent != uint64(len(r.ticks)) {
		return fmt.Errorf("strategies sent %d orders, exchange accepted %d", sent, len(r.ticks))
	}
	if p.ha != nil {
		j, f := p.ha.Journal, p.ha.Follower
		if f.Applied != j.Records || f.Bytes != j.Bytes {
			return fmt.Errorf("follower applied %d records/%d bytes, journal wrote %d/%d", f.Applied, f.Bytes, j.Records, j.Bytes)
		}
		if p.ha.Promoted() {
			return fmt.Errorf("standby promoted without a fault")
		}
	}
	if p.drains && p.sched.Pending() != 0 {
		return fmt.Errorf("%d events still pending at the deadline", p.sched.Pending())
	}
	return nil
}
