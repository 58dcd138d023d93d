package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestManifestMatchesMetrics checks that BENCHMARK.json names exactly the
// metrics the JSON line carries: e2eMetrics untraced, layerMetrics traced.
func TestManifestMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		section string
		listed  []struct{ Name string }
		code    []string
	}{
		{"end_to_end", manifest.EndToEnd, e2eMetrics},
		{"per_layer", manifest.PerLayer, layerMetrics},
	} {
		var names []string
		for _, m := range c.listed {
			names = append(names, m.Name)
		}
		slices.Sort(names)
		code := slices.Clone(c.code)
		slices.Sort(code)
		if !slices.Equal(names, code) {
			t.Errorf("BENCHMARK.json %s lists %v, the benchmark reports %v", c.section, names, code)
		}
	}
}
