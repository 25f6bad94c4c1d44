package shim

import (
	"math/rand"
	"testing"
)

// benchStream decodes a deterministic update stream for throughput
// benchmarks (same decoder as the differential harness).
func benchStream(t testing.TB, cp *Compiled, n int) []*Update {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 64*n)
	rng.Read(data)
	fd := &byteFeed{data: data}
	ups := make([]*Update, n)
	for i := range ups {
		ups[i], _ = fuzzUpdate(cp.file, fd)
	}
	return ups
}

func benchApply(b *testing.B, fastpath bool) {
	cp := widthCompiled(b)
	ups := benchStream(b, cp, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(ups) == 0 {
			b.StopTimer()
			s := NewFromCompiled(cp)
			s.SetFastpath(fastpath)
			b.StartTimer()
			benchShim = s
		}
		_ = benchShim.Apply(ups[i%len(ups)])
	}
}

var benchShim *Shim

func BenchmarkApplyFast(b *testing.B) { benchApply(b, true) }
func BenchmarkApplySlow(b *testing.B) { benchApply(b, false) }
