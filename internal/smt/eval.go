package smt

import "math/big"

// Env maps variable names to concrete values. Boolean variables use 0/1.
type Env map[string]*big.Int

// SetBool assigns a boolean variable.
func (e Env) SetBool(name string, v bool) {
	if v {
		e[name] = big.NewInt(1)
	} else {
		e[name] = big.NewInt(0)
	}
}

// Set assigns a bitvector variable.
func (e Env) Set(name string, v *big.Int) { e[name] = v }

// SetUint64 assigns a bitvector variable from a uint64.
func (e Env) SetUint64(name string, v uint64) { e[name] = new(big.Int).SetUint64(v) }

// Eval evaluates t under env. Boolean results are 0 or 1. Unbound
// variables evaluate to zero (the "havoc resolved to zero" convention used
// in tests; the solver never relies on this). The result must not be
// mutated by the caller.
func Eval(t *Term, env Env) *big.Int {
	cache := make(map[*Term]*big.Int)
	return eval(t, env, cache)
}

// EvalBool evaluates a boolean term under env.
func EvalBool(t *Term, env Env) bool {
	mustBool(t)
	return Eval(t, env).Sign() != 0
}

// eval is strict: every argument is evaluated (once, through the cache)
// and the node's value is evalOp of the argument values.
func eval(t *Term, env Env, cache map[*Term]*big.Int) *big.Int {
	if v, ok := cache[t]; ok {
		return v
	}
	var v *big.Int
	switch t.op {
	case OpTrue:
		v = bigOne
	case OpFalse:
		v = bigZero
	case OpConst:
		v = t.val
	case OpVar:
		v = bigZero
		if bound, ok := env[t.name]; ok {
			if t.sort.IsBool() {
				v = truth(bound.Sign() != 0)
			} else {
				v = normalize(bound, t.sort.Width)
			}
		}
	default:
		if opTable[t.op].arity == variadic { // and, or: fold the binary operator
			v = eval(t.args[0], env, cache)
			for _, a := range t.args[1:] {
				v = evalOp(t.op, 0, 0, 0, v, eval(a, env, cache), nil)
			}
			break
		}
		var arg [3]*big.Int
		for i, a := range t.args {
			arg[i] = eval(a, env, cache)
		}
		v = evalOp(t.op, t.sort.Width, t.args[0].sort.Width, t.idx[1], arg[0], arg[1], arg[2])
	}
	cache[t] = v
	return v
}

// Substitute returns t with every occurrence of the variables in subst
// replaced by the corresponding term. The substitution is simultaneous.
func Substitute(f *Factory, t *Term, subst map[*Term]*Term) *Term {
	cache := make(map[*Term]*Term)
	var walk func(*Term) *Term
	walk = func(u *Term) *Term {
		if r, ok := subst[u]; ok {
			return r
		}
		if r, ok := cache[u]; ok {
			return r
		}
		if len(u.args) == 0 {
			cache[u] = u
			return u
		}
		args := make([]*Term, len(u.args))
		changed := false
		for i, a := range u.args {
			args[i] = walk(a)
			if args[i] != a {
				changed = true
			}
		}
		out := u
		if changed {
			var err error
			if out, err = f.Apply(u.op, args, u.Indices()...); err != nil {
				panic(err) // subst maps a term to one of another sort
			}
		}
		cache[u] = out
		return out
	}
	return walk(t)
}
