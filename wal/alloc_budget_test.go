package wal

import (
	"testing"

	"amoeba/internal/bufpool"
)

// TestAllocBudgetAppend holds what a steady-state Append without Sync costs
// the heap: nothing. The record is spelled into the log's own buffer, header
// room reserved in front, and the buffer is reused by the next append.
func TestAllocBudgetAppend(t *testing.T) {
	if bufpool.Poison || testing.Short() {
		t.Skip("allocation counts are for plain, full runs")
	}
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 200)
	entries := []Entry{{Payload: payload}, {Payload: payload}}
	appendOne := func() {
		entries[0].Seq = entries[1].Seq + 1
		entries[1].Seq = entries[0].Seq + 1
		if err := l.Append(entries); err != nil {
			t.Fatal(err)
		}
	}
	appendOne() // the buffer grows to size once
	if got := testing.AllocsPerRun(1000, appendOne); got != 0 {
		t.Fatalf("an Append costs %.1f heap objects, budget 0", got)
	}
}
