package lib

// Shape is the interface through which Square.Area is reached.
type Shape interface{ Area() int }

type Square struct{ N int }

// Area is called only through Shape: not reported.
func (s Square) Area() int { return s.N * s.N }

// Total is called from bench: not reported.
func Total(shapes []Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// BenchOnly is called only from bench: not reported.
func BenchOnly() int { return 3 }

// OnlyTested is called only from an internal test file: reported.
func OnlyTested() int { return 1 }

// XTested is called only from an external test file: reported.
func XTested() int { return 4 }

// Unused has no reference: reported.
func Unused() int { return 2 }

// countdown calls only itself: reported.
func countdown(n int) int {
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// inTable is referenced from the declaration after its own: not reported.
func inTable() int { return 5 }

var table = []func() int{inTable}
