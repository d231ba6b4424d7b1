//go:build race

package bufpool

// Poison reports whether Put overwrites what it takes back: true in
// builds with the race detector, false otherwise.
const Poison = true
