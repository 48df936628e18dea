package firm

import (
	"tradenet/internal/market"
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
	"tradenet/internal/trace"
)

// GatewayBasePort is the first TCP port gateways accept internal sessions
// on.
const GatewayBasePort = 18000

// GatewayConfig parameterizes an order gateway.
type GatewayConfig struct {
	// TranslateLatency is the software cost of converting one internal
	// request into the exchange protocol (and one response back).
	TranslateLatency sim.Duration
}

// Gateway terminates internal order-entry sessions from strategies and
// relays their flow onto an exchange session, translating identifiers and
// re-sequencing — §2's "translate from internal order entry formats back to
// the protocols that the exchanges use".
type Gateway struct {
	// oeClient is the exchange-facing session: its nic, stream and
	// session, hardening (res) and the host's scheduler.
	oeClient
	cfg   GatewayConfig
	host  *netsim.Host
	inNIC *netsim.NIC
	inMux *netsim.StreamMux

	// id translation: exchange-facing id ↔ (internal session, internal id).
	nextExID uint64
	byExID   map[uint64]clientRef
	toExID   map[clientRef]uint64
	// exchIDs maps the gateway's exchange-facing order id to the venue's
	// own order id (from the ack), relayed to internal clients.
	exchIDs map[uint64]uint64

	nextPort uint16

	// respFree and relayFree pool the argument structs the translate-latency
	// delay paths carry, so both directions schedule allocation-free via
	// AfterArgs.
	respFree  []*response
	relayFree []*relayReq

	// Stats.
	Relayed   uint64
	Responses uint64
	// Resilience stats (resilience.go).
	Unknowns           uint64 // orders escalated as unknown to their owner
	SessionDownRejects uint64 // requests failed fast while the session was down
}

type clientRef struct {
	sess *orderentry.ExchangeSession
	id   uint64
}

// respKind selects which session callback a delayed exchange response
// invokes on delivery.
type respKind uint8

const (
	respAck respKind = iota
	respFill
	respReject
	respCancelAck
	respCancelReject
)

// response carries one exchange response across the TranslateLatency delay.
type response struct {
	ref    clientRef
	kind   respKind
	exID   uint64
	qty    market.Qty
	price  market.Price
	reason orderentry.RejectReason
}

// relayReq carries one inbound strategy request across the TranslateLatency
// delay.
type relayReq struct {
	sess *orderentry.ExchangeSession
	m    orderentry.Msg
	tr   *trace.Ctx
}

// NewGateway builds a gateway host. Its exchange side is connected later
// with ConnectExchange; strategies attach via AcceptStrategy.
func NewGateway(sched *sim.Scheduler, name string, hostID uint32, cfg GatewayConfig) *Gateway {
	g := &Gateway{
		cfg:      cfg,
		byExID:   make(map[uint64]clientRef),
		toExID:   make(map[clientRef]uint64),
		exchIDs:  make(map[uint64]uint64),
		nextPort: GatewayBasePort,
	}
	g.sched = sched
	g.host = netsim.NewHost(sched, name)
	g.inNIC = g.host.AddNIC("internal", hostID)
	g.nic = g.host.AddNIC("exchange", hostID+1)
	g.inMux = netsim.NewStreamMux(g.inNIC)
	return g
}

// InNIC returns the strategy-facing NIC.
func (g *Gateway) InNIC() *netsim.NIC { return g.inNIC }

// ExNIC returns the exchange-facing NIC.
func (g *Gateway) ExNIC() *netsim.NIC { return g.nic }

// ConnectExchange opens the gateway's session to an exchange order port.
func (g *Gateway) ConnectExchange(localPort uint16, exchangeAddr pkt.UDPAddr) {
	g.dial(localPort, exchangeAddr)
	g.session.OnExchangeID = func(exID, exchOrderID uint64) {
		g.exchIDs[exID] = exchOrderID
	}
	g.session.OnAck = func(exID uint64) {
		g.respond(exID, respAck, 0, 0, orderentry.RejectNone)
	}
	g.session.OnFill = func(exID uint64, qty market.Qty, price market.Price, done bool) {
		g.respond(exID, respFill, qty, price, orderentry.RejectNone)
	}
	g.session.OnReject = func(exID uint64, r orderentry.RejectReason) {
		g.respond(exID, respReject, 0, 0, r)
	}
	g.session.OnCancelAck = func(exID uint64) {
		g.respond(exID, respCancelAck, 0, 0, orderentry.RejectNone)
	}
	g.session.OnCancelReject = func(exID uint64) {
		g.respond(exID, respCancelReject, 0, 0, orderentry.RejectNone)
	}
}

// ExchangeSession returns the exchange-facing session (nil before connect).
func (g *Gateway) ExchangeSession() *orderentry.ClientSession { return g.session }

func (g *Gateway) respond(exID uint64, kind respKind, qty market.Qty, price market.Price, reason orderentry.RejectReason) {
	ref, ok := g.byExID[exID]
	if !ok {
		return
	}
	g.Responses++
	var r *response
	if n := len(g.respFree); n > 0 {
		r = g.respFree[n-1]
		g.respFree = g.respFree[:n-1]
	} else {
		r = new(response)
	}
	*r = response{ref: ref, kind: kind, exID: exID, qty: qty, price: price, reason: reason}
	g.sched.AfterArgs(g.cfg.TranslateLatency, sim.PrioDeliver, deliverResponseArgs, g, r)
}

// deliverResponseArgs adapts deliverResponse to the Scheduler's closure-free
// two-argument callback shape.
func deliverResponseArgs(a, b any) { a.(*Gateway).deliverResponse(b.(*response)) }

func (g *Gateway) deliverResponse(r *response) {
	ref := r.ref
	switch r.kind {
	case respAck:
		ref.sess.Ack(ref.id, g.exchIDs[r.exID])
	case respFill:
		ref.sess.Fill(ref.id, r.qty, r.price)
	case respReject:
		ref.sess.Reject(ref.id, r.reason)
	case respCancelAck:
		ref.sess.CancelAck(ref.id)
	case respCancelReject:
		ref.sess.CancelReject(ref.id)
	}
	*r = response{}
	g.respFree = append(g.respFree, r)
}

// AcceptStrategy provisions an internal session endpoint for a strategy at
// clientAddr and returns the TCP port the strategy should dial.
func (g *Gateway) AcceptStrategy(clientAddr pkt.UDPAddr) uint16 {
	port := g.nextPort
	g.nextPort++
	stream := netsim.NewStream(g.inNIC, port, clientAddr)
	sess := orderentry.NewExchangeSession(func(b []byte) { stream.Write(b) })
	stream.OnData = func(b []byte) { sess.Receive(b) }
	g.inMux.Register(stream)

	// Each handler adopts the trace the mux parked on the stream (nil when
	// untraced) so the translate delay is attributed to gateway software.
	sess.OnNew = func(m *orderentry.Msg) {
		r := g.copyReq(sess, m)
		r.tr = stream.TakeRxTrace()
		g.sched.AfterArgs(g.cfg.TranslateLatency, sim.PrioDeliver, relayNewArgs, g, r)
	}
	sess.OnCancel = func(m *orderentry.Msg) {
		r := g.copyReq(sess, m)
		r.tr = stream.TakeRxTrace()
		g.sched.AfterArgs(g.cfg.TranslateLatency, sim.PrioDeliver, relayCancelArgs, g, r)
	}
	sess.OnModify = func(m *orderentry.Msg) {
		r := g.copyReq(sess, m)
		r.tr = stream.TakeRxTrace()
		g.sched.AfterArgs(g.cfg.TranslateLatency, sim.PrioDeliver, relayModifyArgs, g, r)
	}
	return port
}

// copyReq snapshots an inbound request (the session reuses its decode
// buffer) into a pooled relayReq that survives the TranslateLatency delay.
func (g *Gateway) copyReq(sess *orderentry.ExchangeSession, m *orderentry.Msg) *relayReq {
	var r *relayReq
	if n := len(g.relayFree); n > 0 {
		r = g.relayFree[n-1]
		g.relayFree = g.relayFree[:n-1]
	} else {
		r = new(relayReq)
	}
	r.sess, r.m = sess, *m
	return r
}

// relayNewArgs, relayCancelArgs, and relayModifyArgs adapt the relay paths
// to the Scheduler's closure-free two-argument callback shape.
func relayNewArgs(a, b any) {
	g, r := a.(*Gateway), b.(*relayReq)
	if g.res != nil && !g.session.LoggedOn() {
		// Exchange session down: fail fast so the owner learns now, instead
		// of the order dying silently in a dead socket.
		r.tr.Finish(trace.EndConsumed)
		r.tr = nil
		g.SessionDownRejects++
		r.sess.Reject(r.m.OrderID, orderentry.RejectSessionDown)
		g.releaseReq(r)
		return
	}
	g.nextExID++
	exID := g.nextExID
	ref := clientRef{sess: r.sess, id: r.m.OrderID}
	g.byExID[exID] = ref
	g.toExID[ref] = exID
	g.Relayed++
	g.attachTrace(r)
	g.session.NewOrder(exID, r.m.Symbol, r.m.Side, r.m.Price, r.m.Qty)
	g.releaseReq(r)
}

func relayCancelArgs(a, b any) {
	g, r := a.(*Gateway), b.(*relayReq)
	if g.res != nil && !g.session.LoggedOn() {
		r.tr.Finish(trace.EndConsumed)
		r.tr = nil
		g.SessionDownRejects++
		r.sess.CancelReject(r.m.OrderID)
		g.releaseReq(r)
		return
	}
	ref := clientRef{sess: r.sess, id: r.m.OrderID}
	if exID, ok := g.toExID[ref]; ok {
		g.Relayed++
		g.attachTrace(r)
		g.session.Cancel(exID)
	} else {
		r.tr.Finish(trace.EndConsumed)
		r.tr = nil
		r.sess.CancelReject(r.m.OrderID)
	}
	g.releaseReq(r)
}

func relayModifyArgs(a, b any) {
	g, r := a.(*Gateway), b.(*relayReq)
	if g.res != nil && !g.session.LoggedOn() {
		r.tr.Finish(trace.EndConsumed)
		r.tr = nil
		g.SessionDownRejects++
		r.sess.CancelReject(r.m.OrderID)
		g.releaseReq(r)
		return
	}
	ref := clientRef{sess: r.sess, id: r.m.OrderID}
	if exID, ok := g.toExID[ref]; ok {
		g.Relayed++
		g.attachTrace(r)
		g.session.Modify(exID, r.m.Price, r.m.Qty)
	} else {
		r.tr.Finish(trace.EndConsumed)
		r.tr = nil
		r.sess.CancelReject(r.m.OrderID)
	}
	g.releaseReq(r)
}

// attachTrace hands a relayed request's trace to the exchange-facing stream,
// charging the gateway residency (receive path + translate) as software time.
func (g *Gateway) attachTrace(r *relayReq) {
	if t := r.tr; t != nil {
		t.Record(g.host.Name, trace.CauseSoftware, g.sched.Now())
		g.stream.AttachTxTrace(t)
		r.tr = nil
	}
}

func (g *Gateway) releaseReq(r *relayReq) {
	r.sess, r.m, r.tr = nil, orderentry.Msg{}, nil
	g.relayFree = append(g.relayFree, r)
}
