package shim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"bf4/internal/obs"
	"bf4/internal/spec"
)

// Fleet: the shim lifted from one switch to many. Each switch gets a
// shard — its own shadow state, dedup window and snapshot+journal store,
// guarded by its own lock — while the expensive per-program work
// (compiling inferred annotations into terms) happens once per program
// fingerprint in a shared AnnotationCache: verify once, guard every
// switch running that program.
//
// Availability is per shard. A shard dies (crash, wedged operation) and
// only its switch degrades; a supervisor notices via deadline-based
// health checks, fences the dead incarnation, and restores the shard
// from its snapshot+journal. While a shard is down, or wedged past
// OpWait, every operation on it fails fast with a retryable
// ShardDownError; the controller backs off and retries.
//
// The exactly-once story under failover: a mutation is journaled before
// it is committed to memory, so the on-disk journal is the authority.
// Fencing works by closing the dead incarnation's journal handle — a
// zombie operation still holding the old shim cannot append, therefore
// cannot commit, therefore cannot be acknowledged. Retried mutations
// carry idempotency keys and the dedup window is persisted, so a
// controller retrying across a restore gets the recorded outcome
// instead of a double-apply.

// ShardState is one point in a shard's lifecycle.
type ShardState int32

const (
	// ShardDown: no live shim incarnation; awaiting restore.
	ShardDown ShardState = iota
	// ShardRestoring: the supervisor is rebuilding the shard from its
	// snapshot+journal.
	ShardRestoring
	// ShardHealthy: serving traffic.
	ShardHealthy
)

func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardRestoring:
		return "restoring"
	default:
		return "down"
	}
}

// ShardDownError reports a write refused (or timed out) because its
// shard is unavailable. It is retryable: the shard will come back, and
// retried mutations carry idempotency keys.
type ShardDownError struct {
	ID     string
	State  ShardState
	Reason string
}

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("shim: shard %s unavailable (%s): %s", e.ID, e.State, e.Reason)
}

// FleetConfig tunes a Fleet. The zero value is usable.
type FleetConfig struct {
	// StateRoot, when set, persists each shard under
	// <StateRoot>/<sanitized shard id>/.
	StateRoot string
	// HealthInterval is the supervisor tick (default 250ms).
	HealthInterval time.Duration
	// HealthDeadline declares a shard wedged when one operation has held
	// its lock this long (default 5s).
	HealthDeadline time.Duration
	// OpWait bounds how long an operation waits for a shard's lock
	// before treating the shard as unavailable (default 5s).
	OpWait time.Duration
	// CompactEvery overrides the per-shard journal compaction threshold
	// (0 keeps the store default).
	CompactEvery int
	// NoSync skips per-record journal fsync on every shard.
	NoSync bool
	// Obs publishes fleet and per-shard metrics (nil disables).
	Obs *obs.Registry
	// Cache supplies the annotation cache; nil builds a private one
	// registered against Obs.
	Cache *AnnotationCache
}

func (c *FleetConfig) healthInterval() time.Duration {
	if c.HealthInterval > 0 {
		return c.HealthInterval
	}
	return 250 * time.Millisecond
}

func (c *FleetConfig) healthDeadline() time.Duration {
	if c.HealthDeadline > 0 {
		return c.HealthDeadline
	}
	return 5 * time.Second
}

func (c *FleetConfig) opWait() time.Duration {
	if c.OpWait > 0 {
		return c.OpWait
	}
	return 5 * time.Second
}

// Fleet multiplexes shards and runs their supervisor.
type Fleet struct {
	cfg   FleetConfig
	cache *AnnotationCache

	mu     sync.Mutex
	shards map[string]*Shard
	order  []string

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool

	// Fleet-wide metrics (nil-safe).
	restoresTotal *obs.Counter
	degradedTotal *obs.Counter
	shardsGauge   *obs.Gauge
	downGauge     *obs.Gauge
}

// NewFleet builds an empty fleet. With cfg.Obs set it publishes:
//
//	bf4_fleet_shards                          registered shards
//	bf4_fleet_shards_down                     shards not currently healthy
//	bf4_fleet_restores_total                  shard restores (all shards)
//	bf4_fleet_degraded_rejections_total       writes refused while degraded
//	bf4_fleet_annotation_compiles_total       programs compiled (cache misses)
//	bf4_fleet_annotation_cache_hits_total     compiles avoided by the cache
//
// plus, per shard (labeled series of one family each):
//
//	bf4_fleet_shard_restores_total{shard="id"}
//	bf4_fleet_shard_degraded_rejections_total{shard="id"}
//	bf4_fleet_shard_journal_lag{shard="id"}
func NewFleet(cfg FleetConfig) *Fleet {
	cache := cfg.Cache
	if cache == nil {
		cache = NewAnnotationCache(cfg.Obs)
	}
	return &Fleet{
		cfg:           cfg,
		cache:         cache,
		shards:        map[string]*Shard{},
		stop:          make(chan struct{}),
		restoresTotal: cfg.Obs.Counter("bf4_fleet_restores_total"),
		degradedTotal: cfg.Obs.Counter("bf4_fleet_degraded_rejections_total"),
		shardsGauge:   cfg.Obs.Gauge("bf4_fleet_shards"),
		downGauge:     cfg.Obs.Gauge("bf4_fleet_shards_down"),
	}
}

// sanitizeShardID maps a switch identifier onto a filesystem-safe
// directory name.
func sanitizeShardID(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// AddShard registers a switch running the given program and brings its
// shard up (loading any persisted state). Compilation is shared through
// the annotation cache, so N shards on one program compile once.
func (f *Fleet) AddShard(id string, file *spec.File) (*Shard, error) {
	if id == "" {
		return nil, fmt.Errorf("shim: empty shard id")
	}
	var dir string
	if root := f.cfg.StateRoot; root != "" {
		dir = filepath.Join(root, sanitizeShardID(id))
		// The root's top level holds shard directories only. A state file
		// there is a single-switch shim's: a shard starting empty beside it
		// would drop acknowledged state.
		for _, name := range append([]string{snapshotName, journalName}, legacyNames...) {
			if _, err := os.Lstat(filepath.Join(root, name)); err == nil {
				return nil, fmt.Errorf("shim: %s sits at the top level of the state directory, where only shard directories belong; move it into %s%c to keep its state",
					filepath.Join(root, name), dir, filepath.Separator)
			}
		}
	}
	cp, fp, err := f.cache.Get(file)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if _, dup := f.shards[id]; dup {
		f.mu.Unlock()
		return nil, fmt.Errorf("shim: shard %s already registered", id)
	}
	f.mu.Unlock()

	sd := &Shard{
		fleet: f,
		id:    id,
		fp:    fp,
		cp:    cp,
		dir:   dir,
	}
	reg := f.cfg.Obs
	sd.restores = reg.Counter(obs.LabeledName("bf4_fleet_shard_restores_total", "shard", id))
	sd.degraded = reg.Counter(obs.LabeledName("bf4_fleet_shard_degraded_rejections_total", "shard", id))
	sd.lagGauge = reg.Gauge(obs.LabeledName("bf4_fleet_shard_journal_lag", "shard", id))

	if err := sd.restore(true); err != nil {
		return nil, fmt.Errorf("shim: shard %s: %w", id, err)
	}

	f.mu.Lock()
	f.shards[id] = sd
	f.order = append(f.order, id)
	f.shardsGauge.Set(int64(len(f.shards)))
	f.mu.Unlock()
	return sd, nil
}

// Shard returns the shard for a switch id (nil if unknown).
func (f *Fleet) Shard(id string) *Shard {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[id]
}

// all snapshots the shard list without holding the fleet lock during
// per-shard work.
func (f *Fleet) all() []*Shard {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Shard, 0, len(f.order))
	for _, id := range f.order {
		out = append(out, f.shards[id])
	}
	return out
}

// Health reports every shard's lifecycle state, keyed by switch id.
func (f *Fleet) Health() map[string]string {
	out := map[string]string{}
	down := 0
	for _, sd := range f.all() {
		st := sd.State()
		out[sd.id] = st.String()
		if st != ShardHealthy {
			down++
		}
	}
	f.downGauge.Set(int64(down))
	return out
}

// Kill fences a shard's live incarnation, emulating a crash: the
// current shim is discarded and its journal handle closed, so in-flight
// operations cannot commit or acknowledge. The supervisor (or an
// explicit RestoreNow) brings the shard back from disk.
func (f *Fleet) Kill(id string) error {
	sd := f.Shard(id)
	if sd == nil {
		return fmt.Errorf("shim: unknown shard %s", id)
	}
	sd.Kill()
	return nil
}

// RestoreNow synchronously restores a shard from its snapshot+journal.
func (f *Fleet) RestoreNow(id string) error {
	sd := f.Shard(id)
	if sd == nil {
		return fmt.Errorf("shim: unknown shard %s", id)
	}
	return sd.restore(false)
}

// StartSupervisor launches the health-check loop: every HealthInterval
// it restores down shards and fails over wedged ones (an operation
// holding a shard's lock past HealthDeadline).
func (f *Fleet) StartSupervisor() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		tick := time.NewTicker(f.cfg.healthInterval())
		defer tick.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-tick.C:
				f.superviseOnce()
			}
		}
	}()
}

// superviseOnce is one supervisor pass (exported to tests via
// RestoreNow/Kill; the loop just repeats this).
func (f *Fleet) superviseOnce() {
	deadline := f.cfg.healthDeadline()
	now := time.Now().UnixNano()
	down := 0
	for _, sd := range f.all() {
		switch sd.State() {
		case ShardDown:
			down++
			// Restore in place: supervision is sequential by design so
			// concurrent restores never compete for disk.
			_ = sd.restore(false)
		case ShardRestoring:
			down++
		case ShardHealthy:
			if start := sd.opStart.Load(); start != 0 && now-start > int64(deadline) {
				// Wedged: one operation has held the shard lock past the
				// deadline. Fence it and bring up a fresh incarnation.
				sd.Kill()
				_ = sd.restore(false)
			}
		}
	}
	f.downGauge.Set(int64(down))
}

// Close stops the supervisor and checkpoints every healthy shard.
func (f *Fleet) Close() error {
	f.mu.Lock()
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.mu.Unlock()
	f.wg.Wait()
	var first error
	for _, sd := range f.all() {
		if err := sd.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
