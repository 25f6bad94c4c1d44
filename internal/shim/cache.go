package shim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"bf4/internal/obs"
	"bf4/internal/smt"
	"bf4/internal/spec"
)

// Compiled is an immutable compilation of one spec file: every forbidden
// condition parsed into a term, clustered by table and planned (see
// fastpath.go). Compilation is the expensive per-program step of standing
// up a shim (S-expression parsing into the interned term factory), so a
// Compiled is built once per program fingerprint and shared read-only by
// every shard running that program — the fleet's "verify once, guard
// hundreds of switches" story.
//
// Sharing is safe: after Compile returns, the terms, the tables and the
// spec file are only ever read (term evaluation keeps its memo in a
// per-call map, and the term factory's interning is thread-safe).
type Compiled struct {
	file *spec.File
	// f keeps the owning term factory alive (terms intern into it).
	f *smt.Factory
	// tables indexes the schema, and each table's cluster and plan, by
	// name: one lookup per update. byName lists the same tables sorted by
	// name, in which order a shim writes its state.
	tables map[string]*table
	byName []*table

	// maxRegs sizes the scratch register files that scratch pools for
	// fast-path evaluation. Sharing the pool across the shards of one
	// program is safe: a file is checked out for the duration of a single
	// validation or of one table's row upkeep (keepRows), and a program
	// reads no register the update or a shadow entry has not written first.
	maxRegs int
	scratch sync.Pool
}

// Fingerprint content-addresses a spec file: the SHA-256 of its
// canonical JSON marshaling. Two switches running the same verified
// program produce the same fingerprint and therefore share one compiled
// annotation set.
func Fingerprint(file *spec.File) (string, error) {
	data, err := file.Marshal()
	if err != nil {
		return "", fmt.Errorf("shim: fingerprint: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// AnnotationCache maps program fingerprints to compiled annotation sets.
// It is safe for concurrent use; a fleet attaches one cache so that N
// switches running the same program trigger exactly one compile.
type AnnotationCache struct {
	mu       sync.Mutex
	m        map[string]*Compiled
	compiles *obs.Counter
	hits     *obs.Counter
}

// NewAnnotationCache builds an empty cache. reg (nil-safe) publishes
// bf4_fleet_annotation_compiles_total and
// bf4_fleet_annotation_cache_hits_total.
func NewAnnotationCache(reg *obs.Registry) *AnnotationCache {
	return &AnnotationCache{
		m:        map[string]*Compiled{},
		compiles: reg.Counter("bf4_fleet_annotation_compiles_total"),
		hits:     reg.Counter("bf4_fleet_annotation_cache_hits_total"),
	}
}

// Get returns the compiled annotations for file, compiling at most once
// per fingerprint. The returned fingerprint identifies the entry.
func (c *AnnotationCache) Get(file *spec.File) (*Compiled, string, error) {
	fp, err := Fingerprint(file)
	if err != nil {
		return nil, "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cp, ok := c.m[fp]; ok {
		c.hits.Inc()
		return cp, fp, nil
	}
	cp, err := Compile(file)
	if err != nil {
		return nil, "", err
	}
	c.m[fp] = cp
	c.compiles.Inc()
	return cp, fp, nil
}
