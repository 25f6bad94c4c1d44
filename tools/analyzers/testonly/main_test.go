package main

import (
	"reflect"
	"strings"
	"testing"
)

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
