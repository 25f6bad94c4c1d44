package shim

import (
	"sync"
	"sync/atomic"
	"time"

	"bf4/internal/dataplane"
	"bf4/internal/obs"
)

// Shard is one switch's slice of the fleet: a shim incarnation plus its
// snapshot+journal store, guarded by a capacity-1 semaphore (so the
// supervisor can observe how long the current operation has held it —
// that is the wedge detector). A shard moves through incarnations: Kill
// fences the current one (generation bump + journal handle close) and
// restore installs a fresh shim rebuilt from disk.
type Shard struct {
	fleet *Fleet
	id    string
	fp    string
	cp    *Compiled
	dir   string // "" = no persistence

	// opStart is the UnixNano timestamp at which the operation currently
	// holding the semaphore began (0 = idle). The supervisor reads it to
	// detect a wedged shard.
	opStart atomic.Int64

	mu        sync.Mutex
	sh        *Shim
	store     *Store
	sem       chan struct{} // capacity 1; nil while down
	state     ShardState
	gen       int64 // incarnation counter; bumped by every fence
	restoring bool

	// Per-shard metrics (nil-safe).
	restores *obs.Counter
	degraded *obs.Counter
	lagGauge *obs.Gauge
}

// ID returns the switch identifier.
func (sd *Shard) ID() string { return sd.id }

// Fingerprint returns the program fingerprint this shard validates
// against (the annotation-cache key).
func (sd *Shard) Fingerprint() string { return sd.fp }

// State returns the shard's lifecycle state.
func (sd *Shard) State() ShardState {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.state
}

// Healthy reports whether the shard is serving.
func (sd *Shard) Healthy() bool { return sd.State() == ShardHealthy }

// Validate checks an update against the shard without applying it.
func (sd *Shard) Validate(u *Update) error {
	return sd.do(func(sh *Shim) error { return sh.Validate(u) })
}

// Apply validates and applies one update (no idempotency key).
func (sd *Shard) Apply(u *Update) error { return sd.ApplyWithKey("", u) }

// ApplyWithKey validates and applies one update with an idempotency
// key. A write to a down shard fails fast with a ShardDownError.
func (sd *Shard) ApplyWithKey(key string, u *Update) error {
	return sd.do(func(sh *Shim) error { return sh.ApplyWithKey(key, u) })
}

// ApplyBatchWithKey atomically applies a batch with an idempotency key.
func (sd *Shard) ApplyBatchWithKey(key string, updates []*Update) error {
	return sd.do(func(sh *Shim) error { return sh.ApplyBatchWithKey(key, updates) })
}

// Counters returns the current incarnation's counters (zero when down).
func (sd *Shard) Counters() Stats {
	if sh := sd.currentShim(); sh != nil {
		return sh.Counters()
	}
	return Stats{}
}

// ShadowSize returns the shadow entry count for a table (0 when down).
func (sd *Shard) ShadowSize(table string) int {
	if sh := sd.currentShim(); sh != nil {
		return sh.ShadowSize(table)
	}
	return 0
}

// Snapshot materializes the shard's shadow state (nil when down).
func (sd *Shard) Snapshot() *dataplane.Snapshot {
	if sh := sd.currentShim(); sh != nil {
		return sh.Snapshot()
	}
	return nil
}

// MarshalSnapshot serializes the shard's shadow state deterministically.
func (sd *Shard) MarshalSnapshot() ([]byte, error) {
	sh := sd.currentShim()
	if sh == nil {
		return nil, &ShardDownError{ID: sd.id, State: sd.State(), Reason: "no live incarnation"}
	}
	return sh.MarshalSnapshot()
}

// JournalLag returns journal records accumulated since the last
// checkpoint (0 when down or unpersisted).
func (sd *Shard) JournalLag() int {
	if sh := sd.currentShim(); sh != nil {
		return sh.JournalLag()
	}
	return 0
}

func (sd *Shard) currentShim() *Shim {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	if sd.state != ShardHealthy {
		return nil
	}
	return sd.sh
}

// do funnels one operation through the shard's semaphore. An operation
// that finds its shard dead, wedged or fenced under it fails fast with a
// retryable ShardDownError.
func (sd *Shard) do(run func(*Shim) error) error {
	sd.mu.Lock()
	state, sem, gen := sd.state, sd.sem, sd.gen
	sd.mu.Unlock()
	if state != ShardHealthy || sem == nil {
		return sd.unavailable("no live incarnation")
	}
	t := time.NewTimer(sd.fleet.cfg.opWait())
	select {
	case sem <- struct{}{}:
		t.Stop()
	case <-t.C:
		// Lock not acquired within OpWait: wedged or overloaded. Either
		// way the shard is unavailable to this caller; the supervisor
		// decides whether to fail it over.
		return sd.unavailable("timed out waiting for the shard")
	}
	sd.opStart.Store(time.Now().UnixNano())
	release := func() {
		sd.opStart.Store(0)
		<-sem
	}
	// A failover may have swapped the incarnation while we waited on the
	// (possibly orphaned) semaphore — re-read before running.
	sd.mu.Lock()
	sh, curGen, curState := sd.sh, sd.gen, sd.state
	sd.mu.Unlock()
	if curState != ShardHealthy || sh == nil || curGen != gen {
		release()
		return sd.unavailable("no live incarnation")
	}
	err := run(sh)
	release()
	if err != nil && sd.fencedSince(curGen) {
		// The incarnation was fenced mid-operation: the error is a
		// fencing artifact (closed journal handle), not a validation
		// verdict. The mutation did not commit; the caller's retry lands
		// on the restored incarnation (idempotency keys resolve any
		// journaled-but-unacked ambiguity).
		return sd.unavailable("fenced mid-operation")
	}
	sd.observeLag(sh)
	return err
}

func (sd *Shard) fencedSince(gen int64) bool {
	sd.mu.Lock()
	defer sd.mu.Unlock()
	return sd.gen != gen
}

// unavailable counts and returns the refusal of an operation that found its
// shard unavailable.
func (sd *Shard) unavailable(reason string) error {
	sd.degraded.Inc()
	sd.fleet.degradedTotal.Inc()
	return &ShardDownError{ID: sd.id, State: sd.State(), Reason: reason}
}

func (sd *Shard) observeLag(sh *Shim) {
	sd.lagGauge.Set(int64(sh.JournalLag()))
}

// Kill fences the current incarnation, emulating a crash: generation
// bump, shim discarded, store fenced and its journal handle closed. An
// in-flight zombie operation cannot append to the journal any more,
// therefore cannot commit or be acknowledged — the journal on disk
// stays the single source of truth for the next incarnation.
func (sd *Shard) Kill() {
	sd.mu.Lock()
	if sd.sh == nil && sd.state == ShardDown {
		sd.mu.Unlock()
		return
	}
	sd.state = ShardDown
	sd.gen++
	sd.sh = nil
	sd.sem = nil
	st := sd.store
	sd.store = nil
	sd.mu.Unlock()
	if st != nil {
		st.Fence()
	}
	sd.opStart.Store(0)
}

// restore rebuilds the shard from its snapshot+journal and installs the
// fresh incarnation. initial marks the AddShard bring-up, which is not
// counted as a restore.
func (sd *Shard) restore(initial bool) error {
	sd.mu.Lock()
	if sd.restoring || (sd.state == ShardHealthy && sd.sh != nil) {
		sd.mu.Unlock()
		return nil
	}
	sd.restoring = true
	sd.state = ShardRestoring
	sd.mu.Unlock()
	defer func() {
		sd.mu.Lock()
		sd.restoring = false
		sd.mu.Unlock()
	}()

	sh := NewFromCompiled(sd.cp)
	sh.SetObs(sd.fleet.cfg.Obs)
	var st *Store
	if sd.dir != "" {
		var err error
		st, err = OpenStore(sd.dir)
		if err == nil {
			if ce := sd.fleet.cfg.CompactEvery; ce > 0 {
				st.CompactEvery = ce
			}
			st.NoSync = sd.fleet.cfg.NoSync
			err = sh.AttachStore(st)
		}
		if err != nil {
			if st != nil {
				st.Close()
			}
			sd.mu.Lock()
			sd.state = ShardDown
			sd.mu.Unlock()
			return err
		}
	}

	sd.mu.Lock()
	sd.sh, sd.store, sd.sem = sh, st, make(chan struct{}, 1)
	sd.state = ShardHealthy
	sd.mu.Unlock()

	if !initial {
		sd.restores.Inc()
		sd.fleet.restoresTotal.Inc()
	}
	sd.observeLag(sh)
	return nil
}

// close shuts the shard down for good: best-effort drain of the current
// operation, final checkpoint, store closed.
func (sd *Shard) close() error {
	sd.mu.Lock()
	sh, st, sem := sd.sh, sd.store, sd.sem
	sd.state = ShardDown
	sd.gen++
	sd.sh = nil
	sd.store = nil
	sd.sem = nil
	sd.mu.Unlock()
	if sh == nil {
		return nil
	}
	if sem != nil {
		t := time.NewTimer(time.Second)
		select {
		case sem <- struct{}{}:
		case <-t.C:
		}
		t.Stop()
	}
	var err error
	if st != nil {
		if st.recs > 0 {
			err = sh.Checkpoint()
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
