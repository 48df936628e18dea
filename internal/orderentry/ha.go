package orderentry

// Hot-standby support. A shadow exchange applies the primary's replication
// journal into sessions that have no transport of their own: order flow
// arrives as journaled operations (driving the same OnNew/OnCancel/OnModify
// engine callbacks the primary ran) and the primary's responses arrive as
// byte-exact transcripts adopted via AdoptTx. A muted session produces no
// traffic of its own; on promotion the mute is lifted and the session picks
// up transmitting at exactly the sequence the primary left off, with the
// primary's retained bytes available for the reconnect replay of relogon.

// Mute suppresses (true) or restores (false) outbound transmission. While
// muted, emit is a no-op: no sequence is consumed, nothing is retained, and
// nothing is sent — the primary's journaled transcript is the sole source
// of outbound state, installed via AdoptTx.
func (e *ExchangeSession) Mute(muted bool) { e.muted = muted }

// AdoptTx installs a response the primary already transmitted: the outbound
// sequence advances to seq and the frame is retained byte-for-byte (when
// retention is armed) so a post-promotion relogon replays exactly what the
// primary would have. Nothing is sent — the client already holds, or will
// resync, these bytes.
func (e *ExchangeSession) AdoptTx(seq uint32, frame []byte) {
	e.seqOut = seq
	if e.retainCap > 0 {
		e.retain(seq, frame)
	}
}

// NoteSeen marks a client order id as accepted, mirroring the primary's
// duplicate screen so a promoted shadow idempotently suppresses resubmits
// of orders the primary had already acknowledged.
func (e *ExchangeSession) NoteSeen(id uint64) { e.seenIDs[id] = true }

// Quiesce freezes the session at a crash instant: the liveness timer stops
// and further emissions are dropped. No callbacks fire — the process is
// gone, not misbehaving, so there is no cancel-on-disconnect sweep and no
// peer-dead escalation from the corpse.
func (e *ExchangeSession) Quiesce() {
	e.stopTick()
	e.muted = true
}

// SeqOut returns the last transmitted (or adopted) outbound sequence.
func (e *ExchangeSession) SeqOut() uint32 { return e.seqOut }
