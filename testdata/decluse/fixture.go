// Package fixture plants one case of each rule of the declaration-use gate
// (decluse_test.go in the module root): the gate's own test runs the
// analysis over this module and compares what it reports.
package fixture

// Shape is satisfied by square; Area has no direct caller.
type Shape interface{ Area() int }

type square struct{ side int }

// Area passes by the interface rule.
func (s square) Area() int { return s.side * s.side }

// Total is the product's use of Shape.
func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// Squares builds shapes for Total.
func Squares(sides ...int) []Shape {
	var out []Shape
	for _, side := range sides {
		out = append(out, square{side: side})
	}
	return out
}

// unusedHelper has no use: reported.
func unusedHelper() int { return unusedHelper() }

// Widget has a field nothing names (spare) and one only assigned (count).
type Widget struct {
	size  int
	count int
	spare int
}

// NewWidget assigns count, which nothing reads.
func NewWidget(size int) *Widget {
	w := &Widget{size: size}
	w.count = 1
	return w
}

// Size reads size.
func (w *Widget) Size() int { return w.size }

// Resize has no use: reported.
func (w *Widget) Resize(size int) { w.size = size }

// OnlyTests is called only from a _test.go file: reported.
func OnlyTests() int { return 1 }

// Record's Label is read by an encoder through its tag.
type Record struct {
	Name  string
	Label string `json:"label"`
}

// pairKey is a map key: its fields are read by hashing and comparison.
type pairKey struct{ a, b int }

// Pairs counts pairs by key.
func Pairs(recs []Record) map[pairKey]int {
	m := map[pairKey]int{}
	for i, r := range recs {
		m[pairKey{i, len(r.Name)}]++
	}
	return m
}

type mode int

// modeNone is the unnamed zero default: its block is used through modeFast.
const (
	modeNone mode = iota
	modeFast
)

// Fast reports whether m is the fast mode.
func Fast(m int) bool { return mode(m) == modeFast }
