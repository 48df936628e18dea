package orderentry

import (
	"errors"

	"tradenet/internal/market"
	"tradenet/internal/sim"
)

// Errors surfaced by session state machines.
var (
	ErrSeqGap      = errors.New("orderentry: sequence gap on session")
	ErrNotLoggedOn = errors.New("orderentry: operation before logon")
)

// OrderState tracks a client's view of one working order.
type OrderState struct {
	Symbol    market.SymbolID
	Side      market.Side
	Price     market.Price
	Qty       market.Qty // current working quantity
	Filled    market.Qty
	Acked     bool
	CancelReq bool   // cancel in flight — the §2 race window
	ExchID    uint64 // the exchange's id for this order (from the ack)

	// attempts/ackTimer drive ack-timeout resubmission (resilience.go).
	attempts int
	ackTimer sim.Handle
}

// endpoint is the half of an order-entry session both ends share: the
// transport binding, outbound encoding and sequencing, inbound framing, the
// logon flag, and liveness — heartbeat every Interval, declare the peer dead
// after MissLimit silent intervals (resilience.go arms it). The owner sets
// beat to emit one heartbeat through its own send path, so an exchange
// heartbeat stays subject to muting, retention and OnTx.
type endpoint struct {
	send    func([]byte)
	framer  Framer
	seqOut  uint32
	seqIn   uint32
	logged  bool
	scratch []byte
	beat    func()

	// Liveness state; zero-valued when disabled.
	sched    *sim.Scheduler
	live     LivenessConfig
	lastRx   sim.Time
	liveTick sim.Handle
	dead     bool

	// OnPeerDead fires once when liveness declares the peer unreachable (or
	// Drop is called). A client owner decides whether to reconnect; the
	// exchange hangs cancel-on-disconnect from it.
	OnPeerDead func()
	// SessionsDropped counts peer-death declarations.
	SessionsDropped uint64
}

// encode stamps m with the next outbound sequence and encodes it into the
// endpoint's scratch buffer, valid until the next encode.
func (p *endpoint) encode(m *Msg) []byte {
	p.seqOut++
	m.Seq = p.seqOut
	p.scratch = Append(p.scratch[:0], m)
	return p.scratch
}

// noteRx records inbound traffic for the liveness deadline.
func (p *endpoint) noteRx() {
	if p.sched != nil {
		p.lastRx = p.sched.Now()
	}
}

// LoggedOn reports whether the session is in the logged-on state.
func (p *endpoint) LoggedOn() bool { return p.logged }

// Dead reports whether the session has been declared dead (by either the
// liveness deadline or Drop) and not yet re-logged-on.
func (p *endpoint) Dead() bool { return p.dead }

// Rebind points the session at a new transport; orderentry-level state
// (sequences, working orders, retained responses) carries over — that is
// the point of session-level recovery.
func (p *endpoint) Rebind(send func([]byte)) { p.send = send }

// Drop tears the session down from the local side — the transport died
// under it, or the owning process restarted. Equivalent to the liveness
// deadline firing immediately.
func (p *endpoint) Drop() { p.declarePeerDead() }

// armLiveness starts heartbeats and peer-death detection under cfg, counting
// silence from now.
func (p *endpoint) armLiveness(sched *sim.Scheduler, cfg LivenessConfig) {
	p.sched = sched
	p.live = cfg
	p.lastRx = sched.Now()
	p.startTick()
}

// startTick schedules the next liveness tick if liveness is configured and
// no tick is pending.
func (p *endpoint) startTick() {
	if p.live.Interval <= 0 || p.liveTick.Pending() {
		return
	}
	p.liveTick = p.sched.AfterArgs(p.live.Interval, sim.PrioControl, liveTickArgs, p, nil).Handle()
}

// stopTick cancels the pending liveness tick, if any.
func (p *endpoint) stopTick() {
	p.liveTick.Cancel()
	p.liveTick = sim.Handle{}
}

// liveTickArgs adapts the liveness tick to the scheduler's closure-free
// callback shape.
func liveTickArgs(a, _ any) { a.(*endpoint).liveTickFire() }

func (p *endpoint) liveTickFire() {
	p.liveTick = sim.Handle{}
	if p.dead {
		return
	}
	if p.sched.Now().Sub(p.lastRx) > p.live.deadline() {
		p.declarePeerDead()
		return
	}
	p.beat()
	p.startTick()
}

// declarePeerDead tears the session down: the peer is unreachable. Timers
// stop and OnPeerDead fires at this exact virtual instant. The session
// object survives — a client keeps its working orders for post-reconnect
// reconciliation, and the exchange resumes the session on KindLogonSeq.
func (p *endpoint) declarePeerDead() {
	if p.dead {
		return
	}
	p.dead = true
	p.logged = false
	p.SessionsDropped++
	p.stopTick()
	if p.OnPeerDead != nil {
		p.OnPeerDead()
	}
}

// ClientSession is the trading-firm side of an order-entry connection. It
// frames inbound bytes, verifies sequencing, tracks working orders, and
// encodes outbound requests. Transmission is delegated to send, so the
// session runs over any byte-stream transport (the simulator's TCP model).
type ClientSession struct {
	endpoint
	open map[uint64]*OrderState

	// Resilience state (resilience.go); zero-valued when disabled.
	resync  bool // relogon in flight: reconcile on the next logon-ack
	retry   RetryConfig
	ackFree []*ackWait

	// Callbacks fire as exchange responses arrive. Nil callbacks are
	// skipped.
	OnLogon func()
	OnAck   func(orderID uint64)
	// OnExchangeID fires when a new-order ack links the client order to the
	// exchange's own order id (the drop-copy linkage).
	OnExchangeID   func(orderID, exchOrderID uint64)
	OnFill         func(orderID uint64, qty market.Qty, price market.Price, done bool)
	OnReject       func(orderID uint64, reason RejectReason)
	OnCancelAck    func(orderID uint64)
	OnCancelReject func(orderID uint64) // order already gone: cancel lost the race
	// OnOrderUnknown fires when an order's resubmissions are exhausted: its
	// fate at the exchange cannot be determined from this side.
	OnOrderUnknown func(orderID uint64)

	// Resilience statistics.
	Resubmits     uint64 // new-order re-emissions (timeout or reconcile)
	OrdersUnknown uint64 // orders escalated through OnOrderUnknown
	Overfills     uint64 // fills past an order's submitted quantity — the
	// duplicate-execution signature (a resubmit executed twice); always 0
	// when the exchange's idempotent resubmission handling is on
}

// NewClientSession returns a session that transmits via send.
func NewClientSession(send func([]byte)) *ClientSession {
	c := &ClientSession{endpoint: endpoint{send: send}, open: make(map[uint64]*OrderState)}
	c.beat = c.Heartbeat
	return c
}

// Open returns the number of working orders.
func (c *ClientSession) Open() int { return len(c.open) }

// Order returns the state of a working order.
func (c *ClientSession) Order(id uint64) (OrderState, bool) {
	st, ok := c.open[id]
	if !ok {
		return OrderState{}, false
	}
	return *st, true
}

func (c *ClientSession) emit(m *Msg) { c.send(c.encode(m)) }

// Logon starts the session handshake.
func (c *ClientSession) Logon() { c.emit(&Msg{Kind: KindLogon}) }

// NewOrder submits a limit order. It returns ErrNotLoggedOn before logon.
func (c *ClientSession) NewOrder(id uint64, sym market.SymbolID, side market.Side, price market.Price, qty market.Qty) error {
	if !c.logged {
		return ErrNotLoggedOn
	}
	st := &OrderState{Symbol: sym, Side: side, Price: price, Qty: qty}
	c.open[id] = st
	c.emit(&Msg{Kind: KindNewOrder, OrderID: id, Symbol: sym, Side: side, Price: price, Qty: qty})
	c.armAck(id, st)
	return nil
}

// Cancel requests cancellation of a working order.
func (c *ClientSession) Cancel(id uint64) error {
	if !c.logged {
		return ErrNotLoggedOn
	}
	if st, ok := c.open[id]; ok {
		st.CancelReq = true
	}
	c.emit(&Msg{Kind: KindCancelOrder, OrderID: id})
	return nil
}

// Modify requests a price/size change on a working order. The local view
// updates optimistically; a reject or cancel-reject corrects it.
func (c *ClientSession) Modify(id uint64, price market.Price, qty market.Qty) error {
	if !c.logged {
		return ErrNotLoggedOn
	}
	st, ok := c.open[id]
	if !ok {
		return nil
	}
	st.Price, st.Qty = price, qty
	st.Acked = false
	c.emit(&Msg{Kind: KindModifyOrder, OrderID: id, Symbol: st.Symbol, Side: st.Side, Price: price, Qty: qty})
	return nil
}

// Heartbeat sends a keepalive.
func (c *ClientSession) Heartbeat() { c.emit(&Msg{Kind: KindHeartbeat}) }

// Receive ingests stream bytes from the exchange.
func (c *ClientSession) Receive(data []byte) error {
	c.noteRx()
	var seqErr error
	err := c.framer.Feed(data, func(m *Msg) {
		if m.Kind == KindLogout {
			// Session-level close is a control message: it must get through
			// even when the sequence picture is torn (a refused resync).
			c.seqIn = m.Seq
			c.handle(m)
			return
		}
		if m.Seq != c.seqIn+1 {
			seqErr = ErrSeqGap
			return
		}
		c.seqIn = m.Seq
		c.handle(m)
	})
	if err != nil {
		return err
	}
	return seqErr
}

func (c *ClientSession) handle(m *Msg) {
	switch m.Kind {
	case KindLogonAck:
		c.logged = true
		if c.resync {
			c.resync = false
			c.reconcile()
		}
		c.startTick()
		if c.OnLogon != nil {
			c.OnLogon()
		}
	case KindLogout:
		// The exchange closed the session (e.g. a resync it could not
		// honor). Not a peer-death: the owner must re-establish from
		// scratch if it wants back in.
		c.logged = false
		c.resync = false
		c.stopTick()
	case KindOrderAck, KindModifyAck:
		if st, ok := c.open[m.OrderID]; ok {
			st.Acked = true
			st.attempts = 0
			st.ackTimer.Cancel()
			st.ackTimer = sim.Handle{}
			if m.Kind == KindOrderAck {
				st.ExchID = m.ExchOrderID
			}
		}
		if m.Kind == KindOrderAck && m.ExchOrderID != 0 && c.OnExchangeID != nil {
			c.OnExchangeID(m.OrderID, m.ExchOrderID)
		}
		if c.OnAck != nil {
			c.OnAck(m.OrderID)
		}
	case KindFill:
		done := false
		if st, ok := c.open[m.OrderID]; ok {
			st.Filled += m.ExecQty
			st.Qty -= m.ExecQty
			if st.Qty < 0 {
				c.Overfills++
			}
			if st.Qty <= 0 {
				st.ackTimer.Cancel()
				delete(c.open, m.OrderID)
				done = true
			}
		}
		if c.OnFill != nil {
			c.OnFill(m.OrderID, m.ExecQty, m.ExecPrice, done)
		}
	case KindReject:
		if st, ok := c.open[m.OrderID]; ok {
			st.ackTimer.Cancel()
		}
		delete(c.open, m.OrderID)
		if c.OnReject != nil {
			c.OnReject(m.OrderID, m.Reason)
		}
	case KindCancelAck:
		if st, ok := c.open[m.OrderID]; ok {
			st.ackTimer.Cancel()
		}
		delete(c.open, m.OrderID)
		if c.OnCancelAck != nil {
			c.OnCancelAck(m.OrderID)
		}
	case KindCancelReject:
		if c.OnCancelReject != nil {
			c.OnCancelReject(m.OrderID)
		}
	}
}

// ExchangeSession is the exchange side of an order-entry connection: it
// enforces logon, sequencing, and duplicate-ID rules, validates requests,
// and hands accepted operations to the matching engine via callbacks. The
// engine responds through Ack/Reject/Fill and friends.
type ExchangeSession struct {
	endpoint
	seenIDs map[uint64]bool

	// Resilience state (resilience.go); zero-valued when disabled.
	retainCap   int
	retainBuf   [][]byte
	retainSeqs  []uint32
	retainSpare []byte
	idempotent  bool
	ackedIDs    map[uint64]uint64 // client order id → exchange id, at ack
	bucket      BucketConfig
	tokens      int
	lastRefill  sim.Time

	// Replication state (ha.go); zero-valued when the session is not part
	// of a hot-standby pair.
	muted bool
	// OnTx, if set, observes every transmitted response exactly as encoded
	// (after retention, before send) so a replication journal can ship the
	// byte-identical session transcript to a standby. The slice is only
	// valid during the call.
	OnTx func(seq uint32, frame []byte)

	// Validate, if set, screens accepted-form requests (unknown symbol,
	// bad price, compliance) before they reach the engine. Return
	// RejectNone to accept.
	Validate func(*Msg) RejectReason

	// Engine callbacks for accepted operations.
	OnNew    func(*Msg)
	OnCancel func(*Msg)
	OnModify func(*Msg)
	// OnLogout fires on a graceful client logout; venues mass-cancel here
	// too, but the session is not dead.
	OnLogout func()

	// Resilience statistics.
	BusyRejects   uint64 // requests shed by the ingress token bucket
	DupSuppressed uint64 // duplicate client ids absorbed idempotently
	ReplayedMsgs  uint64 // retained responses replayed on reconnect
	ResyncRefused uint64 // relogons outside the retain window
}

// NewExchangeSession returns an exchange-side session transmitting via send.
func NewExchangeSession(send func([]byte)) *ExchangeSession {
	e := &ExchangeSession{endpoint: endpoint{send: send}, seenIDs: make(map[uint64]bool)}
	e.beat = func() { e.emit(&Msg{Kind: KindHeartbeat}) }
	return e
}

func (e *ExchangeSession) emit(m *Msg) {
	if e.muted {
		return
	}
	b := e.encode(m)
	if e.retainCap > 0 {
		e.retain(m.Seq, b)
	}
	if e.OnTx != nil {
		e.OnTx(m.Seq, b)
	}
	e.send(b)
}

// Ack acknowledges a new order, echoing the exchange's own order id (zero
// when the venue does not expose one).
func (e *ExchangeSession) Ack(orderID, exchOrderID uint64) {
	if e.ackedIDs != nil {
		e.ackedIDs[orderID] = exchOrderID
	}
	e.emit(&Msg{Kind: KindOrderAck, OrderID: orderID, ExchOrderID: exchOrderID})
}

// ModifyAck acknowledges a modify.
func (e *ExchangeSession) ModifyAck(orderID uint64) {
	e.emit(&Msg{Kind: KindModifyAck, OrderID: orderID})
}

// Reject refuses a request.
func (e *ExchangeSession) Reject(orderID uint64, r RejectReason) {
	e.emit(&Msg{Kind: KindReject, OrderID: orderID, Reason: r})
}

// Fill reports an execution.
func (e *ExchangeSession) Fill(orderID uint64, qty market.Qty, price market.Price) {
	e.emit(&Msg{Kind: KindFill, OrderID: orderID, ExecQty: qty, ExecPrice: price})
}

// CancelAck confirms a cancellation.
func (e *ExchangeSession) CancelAck(orderID uint64) {
	e.emit(&Msg{Kind: KindCancelAck, OrderID: orderID})
}

// CancelReject reports that a cancel lost the race to a fill.
func (e *ExchangeSession) CancelReject(orderID uint64) {
	e.emit(&Msg{Kind: KindCancelReject, OrderID: orderID})
}

// Receive ingests stream bytes from the client.
func (e *ExchangeSession) Receive(data []byte) error {
	e.noteRx()
	var seqErr error
	err := e.framer.Feed(data, func(m *Msg) {
		if m.Kind == KindLogonSeq {
			// Reconnect logon: the client's outbound counter kept running
			// through the outage (some of those messages died on the dead
			// transport), so adopt its sequence instead of demanding
			// contiguity across the gap.
			e.seqIn = m.Seq
			e.relogon(m)
			return
		}
		if m.Seq != e.seqIn+1 {
			seqErr = ErrSeqGap
			return
		}
		e.seqIn = m.Seq
		e.handle(m)
	})
	if err != nil {
		return err
	}
	return seqErr
}

func (e *ExchangeSession) handle(m *Msg) {
	switch m.Kind {
	case KindLogon:
		e.logged = true
		e.emit(&Msg{Kind: KindLogonAck})
	case KindHeartbeat:
		// Keepalive only.
	case KindLogout:
		e.logged = false
		e.stopTick()
		if e.OnLogout != nil {
			e.OnLogout()
		}
	case KindNewOrder:
		if !e.logged {
			e.Reject(m.OrderID, RejectNotLoggedOn)
			return
		}
		if e.seenIDs[m.OrderID] {
			if e.idempotent {
				// Resubmission of an order we already saw. If it was acked,
				// the ack was lost on the way down: re-send it. If it is
				// still in flight toward the engine, swallow the duplicate —
				// the original's ack is coming.
				e.DupSuppressed++
				if exID, ok := e.ackedIDs[m.OrderID]; ok {
					e.Ack(m.OrderID, exID)
				}
				return
			}
			e.Reject(m.OrderID, RejectDuplicateID)
			return
		}
		if !e.admit() {
			e.BusyRejects++
			e.Reject(m.OrderID, RejectBusy)
			return
		}
		if e.Validate != nil {
			if r := e.Validate(m); r != RejectNone {
				e.Reject(m.OrderID, r)
				return
			}
		}
		e.seenIDs[m.OrderID] = true
		if e.OnNew != nil {
			e.OnNew(m)
		}
	case KindCancelOrder:
		if !e.logged {
			e.Reject(m.OrderID, RejectNotLoggedOn)
			return
		}
		if e.OnCancel != nil {
			e.OnCancel(m)
		}
	case KindModifyOrder:
		if !e.logged {
			e.Reject(m.OrderID, RejectNotLoggedOn)
			return
		}
		if !e.admit() {
			e.BusyRejects++
			e.Reject(m.OrderID, RejectBusy)
			return
		}
		if e.Validate != nil {
			if r := e.Validate(m); r != RejectNone {
				e.Reject(m.OrderID, r)
				return
			}
		}
		if e.OnModify != nil {
			e.OnModify(m)
		}
	}
}
