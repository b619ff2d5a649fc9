package main

import (
	"strings"
	"testing"
)

// TestCheckShape: a cluster without racks or servers is refused with the
// flag's name, before the background is sized from it.
func TestCheckShape(t *testing.T) {
	for _, c := range []struct {
		racks, spr int
		flag       string
	}{
		{-1, 10, "-racks"},
		{0, 10, "-racks"},
		{22, -3, "-servers-per-rack"},
		{22, 0, "-servers-per-rack"},
	} {
		err := checkShape(c.racks, c.spr)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("checkShape(%d, %d) = %v, want an error naming %s", c.racks, c.spr, err, c.flag)
		}
	}
	if err := checkShape(1, 1); err != nil {
		t.Errorf("checkShape(1, 1) = %v", err)
	}
}
