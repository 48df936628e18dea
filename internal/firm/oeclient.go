package firm

import (
	"tradenet/internal/netsim"
	"tradenet/internal/orderentry"
	"tradenet/internal/pkt"
	"tradenet/internal/sim"
)

// oeClient is the dialing end of an order-entry session: the stream and
// client session a gateway opens toward the exchange, and a strategy toward
// its gateway (or, in the cloud design, the exchange itself). It also owns
// the host's scheduler and the hardening and redial machinery both owners
// share (resilience.go).
type oeClient struct {
	sched   *sim.Scheduler
	nic     *netsim.NIC
	mux     *netsim.StreamMux
	port    uint16
	stream  *netsim.Stream
	session *orderentry.ClientSession

	// res, when set, hardens the session and its transport.
	res *SessionResilience
	// down, if set, runs first when the peer is declared dead — before the
	// stream is killed and the redial scheduled.
	down func()

	Reconnects uint64 // session redials completed
}

// dial opens the session from local port on the client's NIC to remote and
// logs on.
func (c *oeClient) dial(port uint16, remote pkt.UDPAddr) {
	c.mux = netsim.NewStreamMux(c.nic)
	c.port = port
	c.openStream(remote)
	c.session = orderentry.NewClientSession(c.write)
	c.session.Logon()
}

// openStream binds a fresh stream from the client's port to remote. The
// session's send path reads c.stream on every write, so a redial needs no
// rebind.
func (c *oeClient) openStream(remote pkt.UDPAddr) {
	c.stream = netsim.NewStream(c.nic, c.port, remote)
	c.mux.Register(c.stream)
	c.stream.OnData = func(b []byte) { c.session.Receive(b) }
}

func (c *oeClient) write(b []byte) { c.stream.Write(b) }
