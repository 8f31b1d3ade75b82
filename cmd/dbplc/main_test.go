package main

import (
	"bytes"
	"regexp"
	"slices"
	"testing"

	"repro/internal/compile"
)

// TestCheckPrintsConstructorsSorted: -check lists a module's constructors in
// name order, whatever order they were declared in.
func TestCheckPrintsConstructorsSorted(t *testing.T) {
	prog, err := compile.Compile(`
MODULE four;
TYPE erel = RELATION OF RECORD a, b: STRING END;
VAR E: erel;
CONSTRUCTOR tc4 FOR Rel: erel (): erel;
BEGIN EACH r IN Rel: TRUE END tc4;
CONSTRUCTOR tc2 FOR Rel: erel (): erel;
BEGIN EACH r IN Rel: TRUE END tc2;
CONSTRUCTOR tc FOR Rel: erel (): erel;
BEGIN EACH r IN Rel: TRUE,
  <f.a, g.b> OF EACH f IN Rel, EACH g IN Rel{tc}: f.b = g.a END tc;
CONSTRUCTOR tc3 FOR Rel: erel (): erel;
BEGIN EACH r IN Rel: TRUE END tc3;
END four.
`, compile.Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printAnalysis(&out, prog)
	var got []string
	for _, m := range regexp.MustCompile(`constructor (\S+)`).FindAllStringSubmatch(out.String(), -1) {
		got = append(got, m[1])
	}
	if want := []string{"tc", "tc2", "tc3", "tc4"}; !slices.Equal(got, want) {
		t.Errorf("constructors printed in order %v, want %v:\n%s", got, want, out.String())
	}
}
