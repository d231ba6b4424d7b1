package main

import "testing"

// TestStreamIsAFunctionOfItsSeed: the same (workload, seed, client) yields the
// same ops; changing any of the three yields different ones.
func TestStreamIsAFunctionOfItsSeed(t *testing.T) {
	for _, sp := range specs {
		base := streamHash(genStream(sp.name, 1, 0, sp.mix))
		if again := streamHash(genStream(sp.name, 1, 0, sp.mix)); again != base {
			t.Errorf("%s: seed 1 hashed %x then %x", sp.name, base, again)
		}
		if other := streamHash(genStream(sp.name, 2, 0, sp.mix)); other == base {
			t.Errorf("%s: seeds 1 and 2 give the same stream", sp.name)
		}
		if other := streamHash(genStream(sp.name, 1, 1, sp.mix)); other == base {
			t.Errorf("%s: clients 0 and 1 give the same stream", sp.name)
		}
	}
	a, b := specs[0], specs[1]
	if streamHash(genStream(a.name, 1, 0, a.mix)) == streamHash(genStream(b.name, 1, 0, a.mix)) {
		t.Errorf("workloads %s and %s give the same stream for one mix", a.name, b.name)
	}
}

func TestStreamFollowsItsMix(t *testing.T) {
	for _, sp := range specs {
		counts := map[opKind]int{}
		keys := map[int]bool{}
		for _, o := range genStream(sp.name, 3, 0, sp.mix) {
			counts[o.kind()]++
			keys[o.key(0)] = true
		}
		total := 0
		for _, m := range sp.mix {
			total += m.pct
			got := 100 * float64(counts[m.kind]) / streamLen
			if got < float64(m.pct)-1 || got > float64(m.pct)+1 {
				t.Errorf("%s: %v is %.1f%% of the stream, want %d%%", sp.name, m.kind, got, m.pct)
			}
		}
		if total != 100 {
			t.Errorf("%s: mix sums to %d%%", sp.name, total)
		}
		if len(keys) < numKeys*9/10 {
			t.Errorf("%s: stream touches only %d of %d keys", sp.name, len(keys), numKeys)
		}
	}
}

func TestMultiKeyOpsUseDistinctKeys(t *testing.T) {
	for first := 0; first < numKeys; first += 97 {
		o, seen := op(uint32(opBatchPut)<<24|uint32(first)), map[int]bool{}
		for j := 0; j < batchKeys; j++ {
			k := o.key(j)
			if k < 0 || k >= numKeys || seen[k] {
				t.Fatalf("op at key %d: key %d of the call is %d (repeat or out of range)", first, j, k)
			}
			seen[k] = true
		}
	}
}

func TestValuesRoundTripAndAreUnique(t *testing.T) {
	var a, b [valueSize]byte
	va := fillValue(&a, "key-00042", 1, 123456789)
	w, n, ok := parseValue(va, "key-00042")
	if !ok || w != 1 || n != 123456789 || len(va) != valueSize {
		t.Fatalf("parseValue(%q) = %d, %d, %t", va, w, n, ok)
	}
	if _, _, ok := parseValue(va, "key-00043"); ok {
		t.Fatalf("%q accepted as a value of another key", va)
	}
	if vb := fillValue(&b, "key-00042", 1, 123456790); string(vb) == string(va) {
		t.Fatalf("two writes produced the same value %q", va)
	}
	for _, bad := range []string{"", "key-00042|1|", "key-00042|1|12x" + string(make([]byte, 49))} {
		if _, _, ok := parseValue([]byte(bad), "key-00042"); ok {
			t.Errorf("parseValue accepted %q", bad)
		}
	}
	if n := testing.AllocsPerRun(100, func() { fillValue(&a, "key-00042", 0, 99) }); n != 0 {
		t.Fatalf("fillValue allocates %.0f times", n)
	}
}
