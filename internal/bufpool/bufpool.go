// Package bufpool recycles the frame-sized byte buffers the stack's layers
// hand each other, and turns keeping one past its release into a test failure.
//
// The ownership rule on the ordered path is that every buffer has one owner.
// A layer that passes bytes on — a frame to a handler, an encoded packet to a
// transport — lends them for the duration of that call; whoever needs them
// longer copies. Owners take their buffers from here and put them back when
// the call they lent them to returns. In builds with the race detector, Put
// first overwrites the bytes with PoisonByte, so a borrower that kept a slice
// reads garbage at once rather than on the rare run where the buffer happens
// to be reused in time; `go test -race` is therefore the retention check.
package bufpool

import "sync"

// Size is the capacity of a pooled buffer: the allocator size class that holds
// one link frame (netw.MTU is 1514).
const Size = 1536

// PoisonByte is what Put fills a buffer with when Poison is true.
const PoisonByte = 0xDB

// The pool holds array pointers, never slices: boxing a slice header in a
// sync.Pool allocates on every Put.
var pool = sync.Pool{New: func() any { return new([Size]byte) }}

// Get returns a buffer of length n. Its contents are unspecified: the caller
// writes every byte it goes on to use. A request above Size is served from the
// heap and not recycled.
func Get(n int) []byte {
	if n > Size {
		return make([]byte, n)
	}
	return pool.Get().(*[Size]byte)[:n]
}

// Put takes back a buffer that Get returned, at any length but still starting
// where Get's did. Neither b nor any slice of it may be used afterwards.
func Put(b []byte) {
	b = b[:cap(b)]
	if Poison {
		for i := range b {
			b[i] = PoisonByte
		}
	}
	if len(b) == Size { // a pooled array; anything else came from the heap
		pool.Put((*[Size]byte)(b))
	}
}
