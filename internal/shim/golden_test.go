package shim_test

import (
	"bytes"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"bf4/internal/dataplane"
	"bf4/internal/shim"
	"bf4/internal/smt"
	"bf4/internal/spec"
	"bf4/internal/trace"
)

// The files of testdata/golden were written by the shim of the last
// commit that held every key, mask and parameter as a *big.Int: the
// width-boundary spec (widths.spec.json), the outcome of each update of
// goldenStream over it (outcomes.txt), the state directory it left —
// snapshot.bin after its last checkpoint, journal.bin after it — and its
// final MarshalSnapshot (state.bin), and the frame of a batch request
// (batch.frame, checked in internal/p4runtime). Values held as limbs must
// write the same bytes and read them back to the same state.

// goldenSpec is testdata/golden/widths.spec.json, which must be
// widthFile as it is marshalled.
func goldenSpec(t *testing.T) *spec.File {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "widths.spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want, err := shim.WidthFile().Marshal(); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("testdata/golden/widths.spec.json is not widthFile (%v)", err)
	}
	file, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// goldenBoundary is the i-th of 0, 2^63, 2^64 - 1, 2^64 and all ones at
// width w, all ones where it does not fit.
func goldenBoundary(i, w int) dataplane.Value {
	vs := []*big.Int{big.NewInt(0), new(big.Int).Lsh(big.NewInt(1), 63), new(big.Int).SetUint64(1<<64 - 1), new(big.Int).Lsh(big.NewInt(1), 64), smt.Mask(w)}
	v := vs[i%len(vs)]
	if v.BitLen() > w {
		v = smt.Mask(w)
	}
	out, _ := dataplane.FromBig(v)
	return out
}

// goldenStream is trace.NewGenerator(5, file).Updates(240) with limb
// boundaries, ternary keys under no mask and under the full mask, and a
// default change every 40 updates mixed in.
func goldenStream(file *spec.File) []*shim.Update {
	schema := map[string]*spec.TableSchema{}
	for _, ts := range file.Tables {
		schema[ts.Name] = ts
	}
	var out []*shim.Update
	for i, u := range trace.NewGenerator(5, file).Updates(240) {
		ts := schema[u.Table]
		for j := range u.Entry.Keys {
			k, w := &u.Entry.Keys[j], ts.Keys[j].Width
			if i%11 == 0 && w > 64 {
				k.Value = goldenBoundary(i/11+j, w)
			}
			if ts.Keys[j].MatchKind != "ternary" {
				continue
			}
			switch {
			case (i+j)%7 == 0:
				k.MaskKind = dataplane.FullMask
			case (i+j)%5 == 0:
				k.MaskKind = dataplane.NoMask
			case i%13 == 0 && w > 64:
				k.Mask = goldenBoundary(i/13+j, w)
			}
		}
		for p := range u.Entry.Params {
			if i%9 == 0 && !u.Entry.Params[p].IsZero() {
				for _, a := range ts.Actions {
					if a.Name == u.Entry.Action {
						u.Entry.Params[p] = goldenBoundary(i/9+p, a.Params[p].Width)
					}
				}
			}
		}
		out = append(out, u)
		if i%40 == 39 {
			out = append(out, &shim.Update{Table: "small", SetDefault: &dataplane.DefaultAction{Action: "go_", Params: []dataplane.Value{dataplane.U64(uint64(i % 512))}}})
		}
	}
	return out
}

func readGolden(t *testing.T, name string) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenStateBytes replays goldenStream through a journaled shim
// (checkpoint every 20 records, keyed updates, then keyed batches of
// three) and requires every outcome text, the snapshot and journal files
// and MarshalSnapshot to be the golden bytes; then it loads the golden
// state directory into a fresh shim, which must hold the golden state.
func TestGoldenStateBytes(t *testing.T) {
	file := goldenSpec(t)
	cp, err := shim.Compile(file)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := shim.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.NoSync, st.CompactEvery = true, 20
	s := shim.NewFromCompiled(cp)
	if err := s.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	var outcomes []byte
	note := func(name string, err error) {
		if err == nil {
			outcomes = fmt.Appendf(outcomes, "%s ok\n", name)
		} else {
			outcomes = fmt.Appendf(outcomes, "%s %s\n", name, err)
		}
	}
	stream := goldenStream(file)
	for i := 0; i < len(stream); {
		if i < 150 {
			note(fmt.Sprintf("g%d", i), s.ApplyWithKey(fmt.Sprintf("g%d", i), stream[i]))
			i++
			continue
		}
		n := min(3, len(stream)-i)
		note(fmt.Sprintf("b%d", i), s.ApplyBatchWithKey(fmt.Sprintf("b%d", i), stream[i:i+n]))
		i += n
	}
	if want := readGolden(t, "outcomes.txt"); !bytes.Equal(outcomes, want) {
		t.Errorf("outcomes differ from the golden ones:\n%s", firstDiff(outcomes, want))
	}
	state, err := s.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	golden := readGolden(t, "state.bin")
	if !bytes.Equal(state, golden) {
		t.Errorf("MarshalSnapshot differs from state.bin")
	}
	fresh := t.TempDir()
	for _, name := range []string{"snapshot.bin", "journal.bin"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want := readGolden(t, name)
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden file", name)
		}
		if err := os.WriteFile(filepath.Join(fresh, name), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded := shim.NewFromCompiled(cp)
	st2, err := shim.OpenStore(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := loaded.AttachStore(st2); err != nil {
		t.Fatal(err)
	}
	if got, err := loaded.MarshalSnapshot(); err != nil || !bytes.Equal(got, golden) {
		t.Fatalf("the golden state directory loads to another state (%v)", err)
	}
}

// firstDiff shows the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(g), len(w))
}
