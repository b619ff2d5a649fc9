package main

import (
	"strings"
	"testing"

	"repro/internal/attacksearch"
)

// TestRepeatedSchemeRejected: -scheme matches names case-insensitively,
// so "PAD,pad" names PAD twice, and the search must refuse it instead of
// searching PAD twice and printing every frontier row twice.
func TestRepeatedSchemeRejected(t *testing.T) {
	names, err := parseSchemes("PAD,pad")
	if err != nil {
		t.Fatal(err)
	}
	_, err = attacksearch.Search(attacksearch.Config{Schemes: names, Budget: 2})
	if err == nil || !strings.Contains(err.Error(), `"PAD"`) {
		t.Fatalf("-scheme PAD,pad: Search(%q) error = %v, want one naming PAD", names, err)
	}
}
