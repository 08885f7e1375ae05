package dist

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sample"
)

func frameDataset(texts ...string) *dataset.Dataset {
	samples := make([]*sample.Sample, len(texts))
	for i, t := range texts {
		samples[i] = sample.New(t)
	}
	return dataset.New(samples)
}

// TestValidateResult pins the corrupt-response detection the retry path
// depends on: every structural mismatch must surface as an error.
func TestValidateResult(t *testing.T) {
	req := RunHeader{Shard: 2, FromOp: 1, ToOp: 3}
	good := ResultHeader{Shard: 2, Samples: 5, Flows: []OpFlow{
		{PlanIdx: 1, Name: "a", In: 7, Out: 6},
		{PlanIdx: 2, Name: "b", In: 6, Out: 5},
	}}
	if err := validateResult(req, good, 5); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	cases := map[string]struct {
		rh      ResultHeader
		samples int
	}{
		"wrong shard":      {ResultHeader{Shard: 3, Samples: 5, Flows: good.Flows}, 5},
		"count mismatch":   {ResultHeader{Shard: 2, Samples: 5, Flows: good.Flows}, 4},
		"missing flows":    {ResultHeader{Shard: 2, Samples: 5, Flows: good.Flows[:1]}, 5},
		"wrong flow index": {ResultHeader{Shard: 2, Samples: 5, Flows: []OpFlow{good.Flows[1], good.Flows[0]}}, 5},
		"negative counts":  {ResultHeader{Shard: 2, Samples: 5, Flows: []OpFlow{{PlanIdx: 1, In: -1}, good.Flows[1]}}, 5},
		"extra flows":      {ResultHeader{Shard: 2, Samples: 5, Flows: append(append([]OpFlow{}, good.Flows...), OpFlow{PlanIdx: 3})}, 5},
	}
	for name, c := range cases {
		if err := validateResult(req, c.rh, c.samples); err == nil {
			t.Errorf("%s: corrupt result accepted", name)
		}
	}
}

// TestProfileExportRoundTrip pins the wire shipping of measured
// profiles: Export -> FromProfiles preserves every profile.
func TestProfileExportRoundTrip(t *testing.T) {
	s := NewProfileSet()
	s.Observe("k2", "word_filter", 120, 0.8)
	s.Observe("k1", "char_filter", 90, 0.5)
	s.Observe("k1", "char_filter", 110, 0.6)
	exported := s.Export()
	if len(exported) != 2 || exported[0].Key != "k1" || exported[1].Key != "k2" {
		t.Fatalf("export not in key order: %+v", exported)
	}
	back := FromProfiles(exported)
	if back.Len() != 2 {
		t.Fatalf("import lost profiles: %d", back.Len())
	}
	for _, key := range []string{"k1", "k2"} {
		want, _ := s.Lookup(key)
		got, ok := back.Lookup(key)
		if !ok || got != want {
			t.Errorf("profile %s: got %+v want %+v", key, got, want)
		}
	}
}
