package bufpool

import (
	"bytes"
	"testing"
)

func TestGetSetsLength(t *testing.T) {
	for _, n := range []int{0, 1, Size, Size + 1, 4 * Size} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len %d", n, len(b))
		}
		if pooled := cap(b) == Size; pooled != (n <= Size) {
			t.Fatalf("Get(%d): cap %d", n, cap(b))
		}
		Put(b)
	}
	Put(nil) // owns nothing
}

func TestPutPoisonsUnderRace(t *testing.T) {
	if !Poison {
		t.Skip("buffers are poisoned only in -race builds")
	}
	for _, n := range []int{8, Size + 8} {
		kept := Get(n)
		copy(kept, "borrowed")
		Put(kept)
		if want := bytes.Repeat([]byte{PoisonByte}, n); !bytes.Equal(kept, want) {
			t.Fatalf("Get(%d): a slice kept past Put reads %x, want poison", n, kept[:8])
		}
	}
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	if Poison {
		t.Skip("the race detector's own allocations are counted")
	}
	if n := testing.AllocsPerRun(1000, func() { Put(Get(100)) }); n != 0 {
		t.Fatalf("Get+Put allocates %v objects per run", n)
	}
}
