// Package udpnet implements netw.Network over real UDP sockets, making the
// protocol stack deployable across processes and machines.
//
// Each station binds one UDP socket. The peer set is static configuration
// (addresses exchanged out of band, as cluster deployments do); multicast is
// implemented as fan-out unicast to every peer — FLIP's own position
// ("multicast is an optimisation over n point-to-point messages") — with
// channel filtering at the receiver, like a NIC without a hardware multicast
// filter. UDP supplies the paper's failure model for free: datagrams are
// lost, duplicated, and reordered, which is exactly what the negative-
// acknowledgement machinery recovers from.
//
// Frame layout on the wire: 1 byte type (unicast/multicast), 4 bytes source
// node id, 4 bytes channel id, payload.
package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"amoeba/internal/bufpool"
	"amoeba/internal/netw"
)

const (
	frameHeader   = 9
	typeUnicast   = 1
	typeMulticast = 2
)

// Network is a set of UDP stations created in one process. For cross-process
// deployments, create a single Station per process with NewStation.
type Network struct {
	mu       sync.Mutex
	stations []*Station
}

var _ netw.Network = (*Network)(nil)

// New returns an empty UDP network on loopback.
func New() *Network { return &Network{} }

// Attach creates a station on an OS-assigned loopback port and makes it a
// peer of every station previously attached (and vice versa).
func (n *Network) Attach(name string) (netw.Station, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, err := NewStation(Config{ID: netw.NodeID(len(n.stations))})
	if err != nil {
		return nil, err
	}
	for _, other := range n.stations {
		other.AddPeer(s.id, s.Addr())
		s.AddPeer(other.id, other.Addr())
	}
	n.stations = append(n.stations, s)
	return s, nil
}

// Close shuts every station down.
func (n *Network) Close() {
	n.mu.Lock()
	stations := make([]*Station, len(n.stations))
	copy(stations, n.stations)
	n.mu.Unlock()
	for _, s := range stations {
		_ = s.Close()
	}
}

// Config configures a Station.
type Config struct {
	// ID is this station's node id; must be unique across the peer set.
	ID netw.NodeID
	// Bind is the UDP address to listen on; empty means an OS-assigned
	// loopback port.
	Bind string
	// Peers maps node ids to UDP addresses. Peers may also be added later
	// with AddPeer.
	Peers map[netw.NodeID]string
}

// Station is one UDP endpoint implementing netw.Station.
type Station struct {
	id   netw.NodeID
	conn *net.UDPConn
	wg   sync.WaitGroup

	mu    sync.Mutex
	peers map[netw.NodeID]netip.AddrPort
	// fanout is every peer but this station, the multicast destinations.
	// AddPeer replaces it whole, so a sender may use the slice it read
	// under mu after releasing the lock.
	fanout  []netip.AddrPort
	subs    map[netw.ChannelID]bool
	handler netw.Handler
	closed  bool
}

var _ netw.Station = (*Station)(nil)

// NewStation binds a UDP socket and starts its receive loop.
func NewStation(cfg Config) (*Station, error) {
	bind := cfg.Bind
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("udpnet: resolving %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listening on %q: %w", bind, err)
	}
	s := &Station{
		id:    cfg.ID,
		conn:  conn,
		peers: make(map[netw.NodeID]netip.AddrPort),
		subs:  make(map[netw.ChannelID]bool),
	}
	for id, a := range cfg.Peers {
		if err := s.AddPeer(id, a); err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.recvLoop()
	return s, nil
}

// Addr returns the station's bound UDP address.
func (s *Station) Addr() string { return s.conn.LocalAddr().String() }

// AddPeer registers (or updates) a peer's address.
func (s *Station) AddPeer(id netw.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udpnet: resolving peer %d at %q: %w", id, addr, err)
	}
	ap := ua.AddrPort()
	// An IPv4 peer resolves to its IPv4-mapped IPv6 form; an IPv4 socket
	// sends only to the plain form.
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers[id] = ap
	fanout := make([]netip.AddrPort, 0, len(s.peers))
	for pid, p := range s.peers {
		if pid != s.id {
			fanout = append(fanout, p)
		}
	}
	s.fanout = fanout
	return nil
}

// ID implements netw.Station.
func (s *Station) ID() netw.NodeID { return s.id }

// SetHandler implements netw.Station.
func (s *Station) SetHandler(h netw.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// Subscribe implements netw.Station.
func (s *Station) Subscribe(ch netw.ChannelID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs[ch] = true
}

// Unsubscribe implements netw.Station.
func (s *Station) Unsubscribe(ch netw.ChannelID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, ch)
}

// Send implements netw.Station.
func (s *Station) Send(dst netw.NodeID, payload []byte) error {
	if len(payload) > netw.MTU {
		return fmt.Errorf("%w: %d bytes", netw.ErrFrameTooLarge, len(payload))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return netw.ErrClosed
	}
	peer, ok := s.peers[dst]
	s.mu.Unlock()
	if !ok {
		return nil // unknown destination: the frame vanishes, as on Ethernet
	}
	buf := s.frame(typeUnicast, 0, payload)
	_, err := s.conn.WriteToUDPAddrPort(buf, peer)
	bufpool.Put(buf)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("udpnet: send: %w", err)
	}
	return nil
}

// Multicast implements netw.Station: fan-out unicast to every peer;
// receivers filter by channel.
func (s *Station) Multicast(ch netw.ChannelID, payload []byte) error {
	if len(payload) > netw.MTU {
		return fmt.Errorf("%w: %d bytes", netw.ErrFrameTooLarge, len(payload))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return netw.ErrClosed
	}
	peers := s.fanout
	s.mu.Unlock()
	buf := s.frame(typeMulticast, ch, payload)
	defer bufpool.Put(buf)
	for _, p := range peers {
		if _, err := s.conn.WriteToUDPAddrPort(buf, p); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return netw.ErrClosed
			}
			// Unreachable peer: datagram semantics, keep going.
		}
	}
	return nil
}

// frame renders a datagram into a pooled buffer, which the caller puts back
// once its writes are done.
func (s *Station) frame(typ byte, ch netw.ChannelID, payload []byte) []byte {
	buf := bufpool.Get(frameHeader + len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:], uint32(s.id))
	binary.BigEndian.PutUint32(buf[5:], uint32(ch))
	copy(buf[frameHeader:], payload)
	return buf
}

// Close implements netw.Station.
func (s *Station) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *Station) recvLoop() {
	defer s.wg.Done()
	buf := make([]byte, netw.MTU+frameHeader)
	for {
		// Read, not ReadFromUDP: the sender's id is in the frame, and the
		// source address ReadFromUDP returns costs an allocation a datagram.
		n, err := s.conn.Read(buf)
		if err != nil {
			return // socket closed
		}
		if n < frameHeader {
			continue
		}
		typ := buf[0]
		src := netw.NodeID(binary.BigEndian.Uint32(buf[1:]))
		ch := netw.ChannelID(binary.BigEndian.Uint32(buf[5:]))
		// Lent to the handler, which runs on this loop: the next read
		// overwrites it (netw.Frame).
		payload := buf[frameHeader:n]

		s.mu.Lock()
		h := s.handler
		closed := s.closed
		subscribed := s.subs[ch]
		s.mu.Unlock()
		if h == nil || closed {
			continue
		}
		switch typ {
		case typeUnicast:
			h(netw.Frame{Src: src, Dst: s.id, Payload: payload})
		case typeMulticast:
			if subscribed {
				h(netw.Frame{Src: src, Dst: netw.Broadcast, Channel: ch, Payload: payload})
			}
		}
	}
}
