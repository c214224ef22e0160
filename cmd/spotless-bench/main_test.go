package main

import (
	"bytes"
	"strings"
	"testing"

	"spotless/internal/bench"
)

// TestRegistryListsDrills: every drill id is listed by -list and selects
// its entry through -run; an unknown id is an error.
func TestRegistryListsDrills(t *testing.T) {
	var out bytes.Buffer
	printList(&out)
	listed := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 {
			listed[fields[0]] = true
		}
	}
	drills := []string{"safety", "safety-legacy", "soak", "crashsoak", "powercut"}
	for _, id := range drills {
		if !listed[id] {
			t.Errorf("-list does not list drill %q", id)
		}
	}
	sel, err := bench.Select(strings.Join(drills, ","))
	if err != nil || len(sel) != len(drills) {
		t.Fatalf("selecting the drills: %d entries, %v", len(sel), err)
	}
	if _, err := bench.Select("soak,no-such-drill"); err == nil {
		t.Fatal("an unknown id was accepted")
	}
}
