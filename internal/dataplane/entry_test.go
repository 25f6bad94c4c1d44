package dataplane

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// TestValueAgainstBig holds Value to big.Int on values of 0 to 300 bits,
// the limb boundaries among them: the bytes it reads and writes, its
// limbs, length, width test, equality and decimal form, however it was
// built.
func TestValueAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	one := big.NewInt(1)
	var xs []*big.Int
	for _, n := range []uint{0, 1, 63, 64, 65, 127, 128, 129, 192} {
		p := new(big.Int).Lsh(one, n)
		xs = append(xs, p, new(big.Int).Sub(p, one), new(big.Int).Add(p, one))
	}
	for range 500 {
		xs = append(xs, new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(rng.Intn(300)+1))))
	}
	for _, x := range xs {
		v, err := FromBig(x)
		if err != nil {
			t.Fatal(err)
		}
		padded := append(make([]byte, rng.Intn(3)), x.Bytes()...)
		limbs := make([]uint64, (x.BitLen()+63)/64+rng.Intn(3))
		for i := range limbs {
			limbs[i] = new(big.Int).Rsh(x, uint(64*i)).Uint64()
		}
		for _, u := range []Value{v, FromBytes(padded), FromLimbs(limbs)} {
			switch {
			case !u.Equal(v) || !v.Equal(u):
				t.Fatalf("%s: built three ways, the values differ", x)
			case !bytes.Equal(u.AppendBytes(nil), x.Bytes()):
				t.Fatalf("%s: bytes %x, want %x", x, u.AppendBytes(nil), x.Bytes())
			case u.Big().Cmp(x) != 0 || u.String() != x.String():
				t.Fatalf("%s: reads back as %s", x, u)
			case u.BitLen() != x.BitLen() || u.Limbs() != max(1, (x.BitLen()+63)/64) || u.IsZero() != (x.Sign() == 0):
				t.Fatalf("%s: bit length %d, %d limbs", x, u.BitLen(), u.Limbs())
			case !u.Fits(x.BitLen()) || x.BitLen() > 0 && u.Fits(x.BitLen()-1):
				t.Fatalf("%s: fits the wrong widths", x)
			}
			for i := range u.Limbs() + 1 {
				if want := new(big.Int).Rsh(x, uint(64*i)).Uint64(); u.Limb(i) != want {
					t.Fatalf("%s: limb %d is %x, want %x", x, i, u.Limb(i), want)
				}
			}
		}
		if y, _ := FromBig(new(big.Int).Add(x, one)); y.Equal(v) {
			t.Fatalf("%s equals its successor", x)
		}
	}
	if _, err := FromBig(big.NewInt(-1)); err == nil {
		t.Fatal("a negative integer became a value")
	}
	if _, err := FromBig(nil); err == nil {
		t.Fatal("a missing integer became a value")
	}
}
