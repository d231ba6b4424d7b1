package kv

import (
	"encoding/binary"
	"testing"
)

// TestReaderPair holds reader.pair to the ownership rule a kept pair relies
// on: key and value share one allocation, yet no write or append through the
// value reaches the key, and the value's capacity ends at its own end. Empty
// keys and values, and a value spelled empty (nil in a Pair), come back as
// str and bytes would return them.
func TestReaderPair(t *testing.T) {
	spellPair := func(key string, val []byte) []byte {
		return appendBytes(appendBytes(nil, []byte(key)), val)
	}
	for _, tc := range []struct {
		name string
		key  string
		val  []byte
	}{
		{"key and value", "alpha", []byte("one two three")},
		{"empty key", "", []byte("value")},
		{"empty value", "key", []byte{}},
		{"nil value", "key", nil},
		{"both empty", "", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := spellPair(tc.key, tc.val)
			ref := reader{b: b}
			wantKey, wantVal := ref.str(), ref.bytes()
			r := reader{b: b}
			key, val := r.pair()
			if r.failed || len(r.b) != 0 {
				t.Fatalf("pair failed or left %d bytes", len(r.b))
			}
			if key != wantKey || string(val) != string(wantVal) || (val == nil) != (wantVal == nil) {
				t.Fatalf("pair = %q, %q (nil %v); str and bytes read %q, %q (nil %v)",
					key, val, val == nil, wantKey, wantVal, wantVal == nil)
			}
			if cap(val) != len(val) {
				t.Fatalf("value capacity %d past its length %d", cap(val), len(val))
			}
			for i := range b {
				b[i] ^= 0xA5 // the input is only borrowed
			}
			for i := range val {
				val[i] = 0xFF
			}
			grown := append(val, []byte("appended past the end")...)
			grown[0] = 0xEE
			if key != tc.key {
				t.Fatalf("key %q after writing its value and input, want %q", key, tc.key)
			}
		})
	}
	t.Run("malformed", func(t *testing.T) {
		b := binary.AppendUvarint(appendBytes(nil, []byte("key")), 9) // a value claiming 9 bytes, holding none
		r := reader{b: b}
		if key, val := r.pair(); !r.failed || key != "" || val != nil {
			t.Fatalf("a truncated pair read as %q, %q (failed %v)", key, val, r.failed)
		}
	})
}
