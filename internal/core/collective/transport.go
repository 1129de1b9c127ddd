// Package collective implements Kalis' collective knowledge management
// (§IV-B3, §V): discovery of peer Kalis nodes by periodic beaconing on
// the local network, and encrypted one-way synchronization of knowggets
// marked "collective". A receiving node only accepts knowggets whose
// creator field matches the sending peer, so no node can overwrite or
// alter another node's knowledge.
package collective

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// Handler consumes a datagram received from a peer address.
type Handler func(fromAddr string, data []byte)

// Transport abstracts peer communication: an in-memory hub for
// deterministic tests and simulations, and a UDP transport for real
// deployments.
type Transport interface {
	// Addr returns this endpoint's address.
	Addr() string
	// Send transmits a datagram to a specific peer address.
	Send(addr string, data []byte) error
	// Broadcast transmits a datagram to the discovery domain.
	Broadcast(data []byte) error
	// SetHandler installs the receive callback.
	SetHandler(h Handler)
	// Close releases resources and stops delivery.
	Close() error
}

// ErrClosed is returned when sending on a closed transport.
var ErrClosed = errors.New("collective: transport closed")

// PermanentError marks a Send failure that retrying cannot fix (bad
// peer address, unknown endpoint); the retry policy gives up on these
// immediately instead of burning its backoff budget.
type PermanentError struct {
	Err error
}

func (e *PermanentError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *PermanentError) Unwrap() error { return e.Err }

// IsPermanent reports whether err is a Send failure not worth
// retrying: an explicit PermanentError or a closed transport.
func IsPermanent(err error) bool {
	var pe *PermanentError
	return errors.As(err, &pe) || errors.Is(err, ErrClosed)
}

// --- in-memory transport ---

// Hub connects in-memory transports; delivery is synchronous and in
// call order, keeping simulations deterministic.
type Hub struct {
	mu        sync.Mutex
	endpoints map[string]*MemTransport
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{endpoints: make(map[string]*MemTransport)}
}

// Endpoint creates and attaches a transport with the given address.
func (h *Hub) Endpoint(addr string) *MemTransport {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := &MemTransport{hub: h, addr: addr}
	h.endpoints[addr] = t
	return t
}

// MemTransport is an in-memory Transport attached to a Hub.
type MemTransport struct {
	hub  *Hub
	addr string

	mu      sync.Mutex
	handler Handler
	closed  bool
}

var _ Transport = (*MemTransport)(nil)

// Addr implements Transport.
func (t *MemTransport) Addr() string { return t.addr }

// SetHandler implements Transport.
func (t *MemTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// Send implements Transport.
func (t *MemTransport) Send(addr string, data []byte) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	t.hub.mu.Lock()
	dst := t.hub.endpoints[addr]
	t.hub.mu.Unlock()
	if dst == nil {
		//lint:ignore hotalloc,hotpath unknown-endpoint error path, not the per-round send path
		return &PermanentError{Err: fmt.Errorf("collective: no endpoint %q", addr)}
	}
	dst.deliver(t.addr, data)
	return nil
}

// Broadcast implements Transport.
func (t *MemTransport) Broadcast(data []byte) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	t.hub.mu.Lock()
	dsts := make([]*MemTransport, 0, len(t.hub.endpoints))
	for addr, ep := range t.hub.endpoints {
		if addr != t.addr {
			dsts = append(dsts, ep)
		}
	}
	t.hub.mu.Unlock()
	for _, dst := range dsts {
		dst.deliver(t.addr, data)
	}
	return nil
}

// deliver runs the receiver's handler synchronously on the sender's
// goroutine — a test/simulation artifact; the real UDP receive path
// runs on its own readLoop goroutine, so the receive side is not part
// of the sender's gossip hot path.
//
//lint:coldpath in-memory test transport; real UDP receive runs on its own readLoop goroutine
func (t *MemTransport) deliver(from string, data []byte) {
	t.mu.Lock()
	h := t.handler
	closed := t.closed
	t.mu.Unlock()
	if h != nil && !closed {
		cp := make([]byte, len(data))
		copy(cp, data)
		h(from, cp)
	}
}

// Close implements Transport.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	return nil
}

// --- UDP transport ---

// maxDatagram is the UDP transport's read buffer: a longer datagram
// arrives truncated and fails to open.
const maxDatagram = 64 << 10

// UDPTransport is a Transport over UDP sockets. Discovery broadcasts
// are sent to a configured list of broadcast addresses (e.g. the LAN
// broadcast address, or explicit peer addresses on networks that block
// broadcast).
type UDPTransport struct {
	conn       *net.UDPConn
	broadcasts []string

	mu      sync.Mutex
	handler Handler
	closed  bool
	done    chan struct{}
	// addrCache holds resolved peer addresses: beacons deliver a
	// stable ip:port string per peer, so resolving it once per peer —
	// not once per datagram — takes the resolver off the sync path.
	addrCache map[string]*net.UDPAddr
}

var _ Transport = (*UDPTransport)(nil)

// NewUDPTransport listens on listenAddr (e.g. "127.0.0.1:0") and
// broadcasts to the given addresses.
func NewUDPTransport(listenAddr string, broadcasts []string) (*UDPTransport, error) {
	addr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("collective: resolve %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("collective: listen: %w", err)
	}
	t := &UDPTransport{
		conn:       conn,
		broadcasts: append([]string(nil), broadcasts...),
		done:       make(chan struct{}),
		addrCache:  make(map[string]*net.UDPAddr),
	}
	go t.readLoop()
	return t, nil
}

// Addr implements Transport.
func (t *UDPTransport) Addr() string { return t.conn.LocalAddr().String() }

// SetHandler implements Transport.
func (t *UDPTransport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// SetBroadcasts replaces the discovery address list.
func (t *UDPTransport) SetBroadcasts(addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.broadcasts = append([]string(nil), addrs...)
}

// Send implements Transport. Resolved peer addresses are cached (one
// resolve per peer, not per datagram); resolve failures are permanent,
// socket write failures transient — the collective retry policy keys
// off that distinction via IsPermanent.
func (t *UDPTransport) Send(addr string, data []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	dst := t.addrCache[addr]
	t.mu.Unlock()
	if dst == nil {
		var err error
		dst, err = net.ResolveUDPAddr("udp", addr)
		if err != nil {
			//lint:ignore hotalloc,hotpath resolve-failure error path, hit once per bad peer address
			return &PermanentError{Err: fmt.Errorf("collective: resolve %q: %w", addr, err)}
		}
		t.mu.Lock()
		t.addrCache[addr] = dst
		t.mu.Unlock()
	}
	if _, err := t.conn.WriteToUDP(data, dst); err != nil {
		//lint:ignore hotpath socket-write error path; the happy path formats nothing
		return fmt.Errorf("collective: send to %q: %w", addr, err)
	}
	return nil
}

// Broadcast implements Transport.
func (t *UDPTransport) Broadcast(data []byte) error {
	t.mu.Lock()
	addrs := append([]string(nil), t.broadcasts...)
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	var firstErr error
	for _, addr := range addrs {
		if err := t.Send(addr, data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (t *UDPTransport) readLoop() {
	defer close(t.done)
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h != nil {
			data := make([]byte, n)
			copy(data, buf[:n])
			h(from.String(), data)
		}
	}
}

// Close implements Transport: it stops the read loop and waits for it
// to exit.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.conn.Close()
	<-t.done
	return err
}
