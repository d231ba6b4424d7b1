// Package netw defines the link-layer abstraction shared by every protocol
// implementation in this repository.
//
// The abstraction models an Ethernet-like network: stations attached to a
// shared medium exchange bounded-size frames by unicast or by multicast
// channel. Multicast channels model hardware multicast filtering (the Lance
// NICs in the paper): only stations subscribed to a channel receive — and pay
// an interrupt for — frames sent on it. This is what makes the PB method cost
// n interrupts per broadcast rather than interrupting every host on the wire.
//
// Two implementations exist: memnet (goroutines and channels, for tests,
// examples, and native benchmarks, with optional fault injection) and netsim
// (a calibrated discrete-event model of the paper's 10 Mbit/s Ethernet,
// Lance receive rings, and MC68030 processing costs).
package netw

import "errors"

// MTU is the maximum frame payload in bytes, matching the Ethernet maximum
// frame size used by the paper's Lance interfaces.
const MTU = 1514

// NodeID identifies a station on a network. IDs are assigned densely from 0
// in attachment order.
type NodeID int

// Broadcast is the destination NodeID used in delivered multicast frames.
const Broadcast NodeID = -1

// ChannelID identifies a multicast channel. Stations receive multicast frames
// only for channels they have subscribed to.
type ChannelID uint32

// Frame is a single link-layer frame as seen by a receiver.
type Frame struct {
	// Src is the sending station.
	Src NodeID
	// Dst is the receiving station, or Broadcast for multicast frames.
	Dst NodeID
	// Channel is the multicast channel; meaningful only when Dst is
	// Broadcast.
	Channel ChannelID
	// Payload is the frame body, lent to the handler: valid until the
	// handler returns, copied to be kept. memnet recycles the ring buffer it
	// lives in, udpnet reads the next datagram over it, and netsim hands
	// every receiver the same transmit copy. This is the one ownership rule
	// of the whole stack, restated at each hand-off above (flip.Message,
	// core.Transport, core.Delivery, amoeba.Message): a buffer has one
	// owner, a callee borrows it for the call, and whoever keeps bytes
	// copies them. Race builds overwrite recycled buffers
	// (internal/bufpool), so `go test -race` fails a handler that forgets.
	Payload []byte
}

// Handler receives inbound frames. Handlers for a given station are invoked
// serially, modelling a NIC interrupt handler; they may send frames.
type Handler func(Frame)

// Station is one attachment point on a network.
type Station interface {
	// ID returns the station's network-assigned identifier.
	ID() NodeID
	// Send transmits payload to the station dst. It returns
	// ErrFrameTooLarge if the payload exceeds MTU and ErrClosed after
	// Close. Delivery is unreliable: frames may be dropped (buffer
	// overflow, injected faults) without error. The payload is only
	// borrowed: the caller may reuse it as soon as Send returns.
	Send(dst NodeID, payload []byte) error
	// Multicast transmits payload to every station subscribed to ch,
	// excluding the sender itself (matching NIC behaviour: a station does
	// not interrupt itself for its own multicast).
	Multicast(ch ChannelID, payload []byte) error
	// Subscribe adds ch to the station's multicast filter.
	Subscribe(ch ChannelID)
	// Unsubscribe removes ch from the station's multicast filter.
	Unsubscribe(ch ChannelID)
	// SetHandler installs the inbound frame handler. It must be called
	// before any traffic is directed at the station.
	SetHandler(h Handler)
	// Close detaches the station. Subsequent sends fail with ErrClosed and
	// inbound frames are discarded, modelling a crashed processor.
	Close() error
}

// Network is a medium to which stations can be attached.
type Network interface {
	// Attach creates a new station. The name labels the attachment for
	// the caller; no station keeps it.
	Attach(name string) (Station, error)
}

// Errors returned by Station implementations.
var (
	// ErrFrameTooLarge reports a payload exceeding the MTU.
	ErrFrameTooLarge = errors.New("netw: frame exceeds MTU")
	// ErrClosed reports use of a closed station.
	ErrClosed = errors.New("netw: station closed")
)
