package shim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"sync"

	"bf4/internal/dataplane"
	"bf4/internal/obs"
	"bf4/internal/smt"
	"bf4/internal/spec"
)

// Compiled is an immutable compilation of one spec file: every forbidden
// condition parsed into a term, clustered by table. Compilation is the
// expensive per-program step of standing up a shim (S-expression parsing
// into the interned term factory), so a Compiled is built once per
// program fingerprint and shared read-only by every shard running that
// program — the fleet's "verify once, guard hundreds of switches" story.
//
// Sharing is safe: after Compile returns, the terms, the table clusters
// and the spec file are only ever read (term evaluation keeps its memo
// in a per-call map, and the term factory's interning is thread-safe).
type Compiled struct {
	file *spec.File
	// f keeps the owning term factory alive (terms intern into it).
	f       *smt.Factory
	byTable map[string][]*compiledAssertion
	// tables indexes the schema by name: spec.File.Table is a linear
	// scan, too slow for the per-update lookup at fleet scale.
	tables map[string]*spec.TableSchema

	// plans holds the fast-path compilation per clustered table (see
	// fastpath.go); maxRegs sizes the shared scratch register files.
	plans   map[string]*tablePlan
	maxRegs int
	// scratch pools register files for fast-path evaluation. Sharing the
	// pool across the shards of one program is safe: a file is checked
	// out for the duration of a single validation, and its contents are
	// rewritten from the update before any program reads them.
	scratch sync.Pool

	// onesMask and lpmMask memoize the match-mask constructions bindEntry
	// needs: onesMask[w] = 2^w-1 for every ternary key width,
	// lpmMask[w][plen] = dataplane.PrefixMask(w, plen) for every lpm key width.
	// Built at compile time for every width in the schema, then only
	// read — shards share them without locking.
	onesMask map[int]*big.Int
	lpmMask  map[int][]*big.Int
}

// File returns the spec file this program was compiled from.
func (cp *Compiled) File() *spec.File { return cp.file }

// compileMasks precomputes the per-width match masks (the shim used to
// rebuild these big.Ints on every bindEntry call).
func (cp *Compiled) compileMasks() {
	cp.onesMask = map[int]*big.Int{}
	cp.lpmMask = map[int][]*big.Int{}
	for _, ts := range cp.file.Tables {
		for _, k := range ts.Keys {
			switch k.MatchKind {
			case "ternary":
				if _, ok := cp.onesMask[k.Width]; !ok {
					cp.onesMask[k.Width] = smt.Mask(k.Width)
				}
			case "lpm":
				if _, ok := cp.lpmMask[k.Width]; !ok {
					ms := make([]*big.Int, k.Width+1)
					for plen := 0; plen <= k.Width; plen++ {
						ms[plen] = dataplane.PrefixMask(k.Width, plen)
					}
					cp.lpmMask[k.Width] = ms
				}
			}
		}
	}
}

// memoOnes returns the memoized 2^w-1 (computing fresh for widths
// outside the schema, without mutating the shared map).
func (cp *Compiled) memoOnes(w int) *big.Int {
	if m, ok := cp.onesMask[w]; ok {
		return m
	}
	return smt.Mask(w)
}

// memoPrefixMask returns the memoized dataplane.PrefixMask(w, plen).
func (cp *Compiled) memoPrefixMask(w, plen int) *big.Int {
	if plen >= w {
		return cp.memoOnes(w)
	}
	if ms, ok := cp.lpmMask[w]; ok && plen >= 0 {
		return ms[plen]
	}
	return dataplane.PrefixMask(w, plen)
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

// Len returns the number of cached programs.
func (c *AnnotationCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
