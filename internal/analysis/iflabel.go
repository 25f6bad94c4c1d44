package analysis

import (
	"math/big"
	"slices"
	"sort"

	"bf4/internal/ir"
	"bf4/internal/smt"
)

// label is the abstract security label of one variable: the per-bit
// taint lattice element (bottom = absent from the map, public = zero
// bits would also be absent, sensitive = nonzero mask; mask bits give
// the per-bit refinement), plus provenance for witness rendering:
// deterministic metadata the transfer and join carry alongside the
// masks, never consulted to decide a mask.
type label struct {
	mask *big.Int
	// src is the sensitive source variable the taint traces back to;
	// steps are the variables the value was copied through from src to
	// this variable (ending with the variable itself).
	src   string
	steps []string
}

// iflabels is the dataflow fact: variable name -> label. Variables
// absent carry no taint. The fact maps base (data) variable names; the
// shadow-variable indirection exists only in the instrumented IR.
type iflabels map[string]*label

func (e iflabels) clone() iflabels {
	out := make(iflabels, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// evalTaint evaluates a shadow taint term under the environment's
// masks. Shadow variables of untainted (absent) bases evaluate to zero
// — exactly smt.Eval's unbound-variable convention — so the result is
// the concrete taint mask the instrumented program would compute when
// every shadow holds its abstract mask. Because every taint-transfer
// operator is monotone in its shadow inputs, this over-approximates the
// taint on every concrete path reaching the node.
func (e iflabels) evalTaint(t *smt.Term) *big.Int {
	env := smt.Env{}
	for _, v := range t.Vars(nil) {
		if base, ok := ir.ShadowBase(v.Name()); ok {
			if l := e[base]; l != nil {
				env[v.Name()] = l.mask
			}
		}
	}
	return smt.Eval(t, env)
}

// contributors returns the tainted base variables feeding a taint term,
// sorted by name.
func (e iflabels) contributors(t *smt.Term) []string {
	var out []string
	seen := map[string]bool{}
	for _, v := range t.Vars(nil) {
		base, ok := ir.ShadowBase(v.Name())
		if !ok || seen[base] {
			continue
		}
		seen[base] = true
		if l := e[base]; l != nil && l.mask.Sign() > 0 {
			out = append(out, base)
		}
	}
	sort.Strings(out)
	return out
}

// betterProv orders labels for deterministic provenance selection at
// joins and multi-contributor transfers: shortest chain first, then
// lexicographically smallest source, then smallest rendered chain.
func betterProv(a, b *label) bool {
	if len(a.steps) != len(b.steps) {
		return len(a.steps) < len(b.steps)
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return slices.Compare(a.steps, b.steps) < 0
}

// provFor computes the provenance of a newly labeled variable self,
// assigned a value whose taint term is t: extend the best contributor's
// chain by one step. A taint with no tainted contributor is a source
// (the shadow initialization/havoc of a sensitive variable), so the
// chain starts at self.
func (e iflabels) provFor(t *smt.Term, self string) (string, []string) {
	best := e.bestContributor(t)
	if best == nil {
		return self, nil
	}
	steps := best.steps
	if n := len(steps); n > 0 && steps[n-1] == self {
		return best.src, steps // self-update: chain unchanged
	}
	return best.src, append(slices.Clip(steps), self)
}

// bestContributor picks the deterministic representative label among
// the tainted variables feeding t (nil when t's taint has no tainted
// contributor, i.e. at sources).
func (e iflabels) bestContributor(t *smt.Term) *label {
	var best *label
	for _, c := range e.contributors(t) {
		l := e[c]
		if best == nil || betterProv(l, best) {
			best = l
		}
	}
	return best
}
