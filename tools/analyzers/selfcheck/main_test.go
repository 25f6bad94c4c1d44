package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// analyze type-checks the module rooted at root and returns its entries.
func analyze(root string) ([]entry, error) {
	l, err := load(root)
	if err != nil {
		return nil, err
	}
	return l.unreached(), nil
}

func TestFixture(t *testing.T) {
	entries, err := analyze("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.key)
	}
	// Square.Area (reached through Shape), BenchOnly and Total (called
	// from bench) and inTable (referenced from a variable) are production
	// code's; the tests' references to OnlyTested and XTested do not count.
	want := []string{"lib.OnlyTested", "lib.Unused", "lib.XTested", "lib.countdown"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entries:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestUnallowed(t *testing.T) {
	entries := []entry{
		{key: "a.F", pkg: "a"},
		{key: "a.G", pkg: "a"},
		{key: "(*b.T).M", pkg: "b"},
		{key: "c.H", pkg: "c"},
	}
	got := unallowed(entries, "# comment\na covers the package\n(*b.T).M one entry\nd.X stale\n")
	want := []string{
		"-: c.H: no production code references it",
		"allow.txt: d.X covers no report: delete the line",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q\nwant %q", got, want)
	}
}

// TestAllowList: every line of the checked-in list gives its reason.
func TestAllowList(t *testing.T) {
	for _, line := range strings.Split(allowTxt, "\n") {
		line = strings.TrimSpace(line)
		if _, reason, _ := strings.Cut(line, " "); line != "" && line[0] != '#' && strings.TrimSpace(reason) == "" {
			t.Errorf("%q gives no reason", line)
		}
	}
}

// TestTermContract: on the fixture, the term contract's reports are the
// lines marked "// want: <message prefix>; ...", one report a prefix, and
// no others: the factory's own literals, wg.Add, a method Eq of another
// type and a module function returning a term stay quiet.
func TestTermContract(t *testing.T) {
	l, err := load("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	column := regexp.MustCompile(`:[0-9]+: `)
	for _, line := range l.termContract() {
		got = append(got, column.ReplaceAllString(line, ": "))
	}
	err = filepath.WalkDir("testdata/fixture", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for i, line := range strings.Split(string(src), "\n") {
			if _, marks, ok := strings.Cut(line, "// want: "); ok {
				for _, m := range strings.Split(marks, "; ") {
					want = append(want, fmt.Sprintf("%s:%d: %s", path, i+1, m))
				}
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("reports:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range got {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("report %q, want %q...", got[i], want[i])
		}
	}
}
