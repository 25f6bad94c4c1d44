// Package trace generates deterministic controller-update workloads for
// the shim benchmarks (paper §5.3: 2000 production updates replayed
// against the assertion-bearing tables of switch.p4). Entries are drawn
// per table schema — random key values and masks, random actions and
// parameters — with a configurable fraction shaped to violate validity
// assertions, so rejection paths are exercised too.
package trace

import (
	"math/big"
	"math/rand"

	"bf4/internal/dataplane"
	"bf4/internal/shim"
	"bf4/internal/smt"
	"bf4/internal/spec"
)

// Generator produces update workloads for one spec file.
type Generator struct {
	rng  *rand.Rand
	file *spec.File
	// FaultyFraction of updates target validity-style assertion
	// violations (isValid-shaped keys set to 0 with nonzero masks
	// elsewhere). Default 0.3.
	FaultyFraction float64
}

// NewGenerator returns a deterministic generator for the given seed.
func NewGenerator(seed int64, file *spec.File) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), file: file, FaultyFraction: 0.3}
}

// tablesWithAssertions lists the tables any assertion mentions.
func (g *Generator) tablesWithAssertions() []*spec.TableSchema {
	var out []*spec.TableSchema
	for _, t := range g.file.Tables {
		if len(g.file.AssertionsFor(t.Name)) > 0 {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return g.file.Tables
	}
	return out
}

// Updates generates n inserts across assertion-bearing tables.
func (g *Generator) Updates(n int) []*shim.Update {
	tables := g.tablesWithAssertions()
	if len(tables) == 0 {
		return nil
	}
	out := make([]*shim.Update, 0, n)
	for i := 0; i < n; i++ {
		t := tables[g.rng.Intn(len(tables))]
		faulty := g.rng.Float64() < g.FaultyFraction
		out = append(out, &shim.Update{Table: t.Name, Entry: g.entry(t, faulty)})
	}
	return out
}

func (g *Generator) entry(t *spec.TableSchema, faulty bool) *dataplane.Entry {
	e := &dataplane.Entry{Priority: g.rng.Intn(100)}
	for _, k := range t.Keys {
		isValidityKey := k.Width == 1 && len(k.Path) > 9 && k.Path[len(k.Path)-9:] == "isValid()"
		var km dataplane.KeyMatch
		switch k.MatchKind {
		case "exact":
			v := g.randBits(k.Width)
			if isValidityKey {
				if faulty {
					v = big.NewInt(0) // expect an invalid header: suspicious
				} else {
					v = big.NewInt(1)
				}
			}
			km = dataplane.KeyMatch{Value: v, PrefixLen: -1}
		case "ternary":
			mask := g.randBits(k.Width)
			if faulty && mask.Sign() == 0 {
				mask = big.NewInt(1)
			}
			km = dataplane.KeyMatch{Value: g.randBits(k.Width), Mask: mask, PrefixLen: -1}
		case "lpm":
			km = dataplane.KeyMatch{Value: g.randBits(k.Width), PrefixLen: g.rng.Intn(k.Width + 1)}
		default:
			km = dataplane.KeyMatch{Value: g.randBits(k.Width), PrefixLen: -1}
		}
		e.Keys = append(e.Keys, km)
	}
	// Pick an action (avoid NoAction when alternatives exist, mirroring
	// real controllers).
	var candidates []*spec.ActionSchema
	for _, a := range t.Actions {
		if a.Name != "NoAction" {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		candidates = t.Actions
	}
	if len(candidates) > 0 {
		a := candidates[g.rng.Intn(len(candidates))]
		e.Action = a.Name
		for _, p := range a.Params {
			e.Params = append(e.Params, g.randBits(p.Width))
		}
	}
	return e
}

func (g *Generator) randBits(w int) *big.Int {
	if w <= 0 {
		return big.NewInt(0)
	}
	v := new(big.Int)
	for i := 0; i < w; i += 32 {
		v.Lsh(v, 32)
		v.Or(v, big.NewInt(int64(g.rng.Uint32())))
	}
	return v.And(v, smt.Mask(w))
}
