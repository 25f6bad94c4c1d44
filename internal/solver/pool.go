package solver

import "bf4/internal/obs"

// Pool hands out solvers and takes back the ones their owner is done with,
// so that a run's next round builds its shards and bases in solvers it
// already paid for instead of allocating more. A solver from the pool is
// indistinguishable from a new one's: Reset leaves nothing of its earlier
// life. A pool lives as long as the need for its solvers (one run; never
// the process) and has one owner goroutine: New and Put are called on it
// alone, never from a worker, so which solver is handed out when is the
// program's and not the schedule's. A nil *Pool allocates every solver and
// keeps none.
//
// Ownership: Put hands a solver over for good. The caller must hold the
// only reference and must not touch it again — the pool's next New writes
// over it.
type Pool struct {
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

// New returns an empty solver, as solver.New does.
func (p *Pool) New() *Solver {
	if p == nil {
		return New()
	}
	n := len(p.free)
	if n == 0 {
		p.fresh.Inc()
		return New()
	}
	s := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.recycled.Inc()
	p.retained.Add(-int64(s.sat.Bytes()))
	return s.Reset()
}

// Put hands solvers the caller is done with (nil ones are skipped) over to
// the pool.
func (p *Pool) Put(solvers ...*Solver) {
	if p == nil {
		return
	}
	for _, s := range solvers {
		if s != nil {
			p.free = append(p.free, s)
			p.retained.Add(int64(s.sat.Bytes()))
		}
	}
}
