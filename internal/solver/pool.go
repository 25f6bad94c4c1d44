package solver

import (
	"sync"

	"bf4/internal/obs"
	"bf4/internal/smt"
)

// Pool hands out solvers and takes back the ones their owner is done with,
// so that whoever needs a solver again — an Infer fan-out its forks, one
// pair an instance; a run its next round's shards and bases — overwrites
// one it already paid for instead of allocating another. A solver from the
// pool is indistinguishable from a new one's: Reset and CopyFrom leave
// nothing of its earlier life. A pool lives as long as the need for its
// solvers (one fan-out, one run; never the process) and is safe for its
// owner's goroutines; a nil *Pool allocates every solver and keeps none.
//
// Ownership: Put hands a solver over for good. The caller must hold the
// only reference and must not touch it again — the pool's next New or Fork, on
// any goroutine, writes over it.
type Pool struct {
	mu   sync.Mutex
	free []*Solver

	fresh, recycled *obs.Counter
	retained        *obs.Gauge
}

// NewPool returns an empty pool publishing to reg (nil: to nothing) how
// many solvers it had to allocate (bf4_solver_fresh_total), how many it
// recycled (bf4_solver_recycled_total) and how many bytes of SAT arrays the
// idle ones hold (bf4_solver_pool_retained_bytes).
func NewPool(reg *obs.Registry) *Pool {
	return &Pool{
		fresh:    reg.Counter("bf4_solver_fresh_total"),
		recycled: reg.Counter("bf4_solver_recycled_total"),
		retained: reg.Gauge("bf4_solver_pool_retained_bytes"),
	}
}

// take removes an idle solver from the pool, nil when there is none.
func (p *Pool) take() *Solver {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		p.fresh.Inc()
		return nil
	}
	s := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.recycled.Inc()
	p.retained.Add(-int64(s.sat.Bytes()))
	return s
}

// New returns an empty solver over f, as solver.New does.
func (p *Pool) New(f *smt.Factory) *Solver {
	if s := p.take(); s != nil {
		return s.Reset(f)
	}
	return New(f)
}

// Fork returns an independent copy of base, as new(Solver).CopyFrom(base)
// does.
func (p *Pool) Fork(base *Solver) *Solver {
	s := p.take()
	if s == nil {
		s = new(Solver)
	}
	return s.CopyFrom(base)
}

// Put hands solvers the caller is done with (nil ones are skipped) over to
// the pool.
func (p *Pool) Put(solvers ...*Solver) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range solvers {
		if s != nil {
			p.free = append(p.free, s)
			p.retained.Add(int64(s.sat.Bytes()))
		}
	}
}

// Release lets go of the idle solvers: they are the collector's from here.
func (p *Pool) Release() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.free {
		p.retained.Add(-int64(s.sat.Bytes()))
	}
	p.free = nil
}
