package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// compatCases is a cross-section of the job-spec surface as it existed
// before the problem registry refactor: every problem kind, every strategy,
// inline netlists, explicit schedules, [COHO83a], and batched evaluation.
// The golden file pins each case's checkpoint fingerprint and its committed
// result artifact, so any change to spec normalization, fingerprinting, RNG
// labeling, or the compile path that would orphan existing journals or
// change results shows up as a test failure — resume compatibility is part
// of the public contract.
//
// Regenerate (only when the service result schema intentionally changes)
// with:
//
//	MCOPT_UPDATE_COMPAT=1 go test ./internal/service -run TestSpecCompatGolden
var compatCases = []struct {
	name string
	spec string
}{
	{"gola_default", `{"problem":{"kind":"gola","cells":12,"nets":40},"budget":400,"runs":2,"seed":5}`},
	{"gola_defaults_empty", `{"problem":{"kind":"gola"},"budget":200}`},
	{"nola_metropolis", `{"problem":{"kind":"nola","cells":10,"nets":20},"g":"Metropolis","budget":300,"seed":2}`},
	{"nola_explicit_ys", `{"problem":{"kind":"nola","cells":10,"nets":20},"g":"Six Temperature Annealing","ys":[9,6,4,2.5,1.5,0.8],"budget":300,"seed":2}`},
	{"partition_fig2", `{"problem":{"kind":"partition","cells":12,"nets":30},"strategy":"fig2","budget":500,"runs":2,"seed":7}`},
	{"partition_cohoon", `{"problem":{"kind":"partition","cells":12,"nets":30},"g":"[COHO83a]","budget":400,"seed":3}`},
	{"gola_inline_netlist", `{"problem":{"kind":"gola","netlist":"cells 6\nnet 0 1\nnet 1 2\nnet 2 3\nnet 3 4\nnet 4 5\nnet 5 0\nnet 0 3\n"},"budget":300,"runs":2,"seed":8}`},
	{"gola_batch", `{"problem":{"kind":"gola","cells":16,"nets":60},"batch":8,"budget":400,"seed":11}`},
	{"gola_tempering", `{"problem":{"kind":"gola","cells":12,"nets":40},"strategy":"tempering","g":"Metropolis","chains":3,"exchange_every":64,"budget":600,"seed":4}`},
	{"tsp_annealing", `{"problem":{"kind":"tsp","n":12},"g":"Six Temperature Annealing","budget":400,"runs":2,"seed":4}`},
	{"pmedian_g1", `{"problem":{"kind":"pmedian","n":14,"p":3},"budget":400,"runs":2,"seed":9}`},
	{"nola_fig2", `{"problem":{"kind":"nola","cells":15,"nets":150},"strategy":"fig2","budget":2400,"runs":2,"seed":6}`},
	{"gola_tempering_batch", `{"problem":{"kind":"gola","cells":15,"nets":150},"strategy":"tempering","g":"Six Temperature Annealing","chains":4,"batch":16,"budget":2400,"seed":12}`},
	{"maxcut_tempering_batch", `{"problem":{"kind":"maxcut","cells":24,"nets":60},"strategy":"tempering","chains":4,"batch":8,"budget":1600,"seed":13}`},
}

type compatGolden struct {
	Name        string          `json:"name"`
	Spec        json.RawMessage `json:"spec"`
	Fingerprint string          `json:"fingerprint"`
	Result      json.RawMessage `json:"result"`
}

const compatGoldenPath = "testdata/compat_golden.json"

// TestSpecCompatGolden proves the pre-refactor contract: every recorded spec
// still normalizes to the same fingerprint (so old checkpoint journals stay
// resumable) and still commits a byte-identical result artifact (so a
// resumed or re-run job is indistinguishable from its original run).
func TestSpecCompatGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small job per recorded spec")
	}
	update := os.Getenv("MCOPT_UPDATE_COMPAT") != ""

	_, ts := testServer(t, Config{Workers: 2})
	var got []compatGolden
	for _, c := range compatCases {
		var s JobSpec
		if err := json.Unmarshal([]byte(c.spec), &s); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", c.name, err)
		}
		id, _ := submit(t, ts, c.spec, "")
		waitState(t, ts, id, StateDone)
		got = append(got, compatGolden{
			Name:        c.name,
			Spec:        json.RawMessage(c.spec),
			Fingerprint: strconv.FormatUint(s.Fingerprint(), 16),
			Result:      json.RawMessage(getResult(t, ts, id)),
		})
	}

	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(compatGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(compatGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", compatGoldenPath, len(got))
		return
	}

	data, err := os.ReadFile(compatGoldenPath)
	if err != nil {
		t.Fatalf("read golden (MCOPT_UPDATE_COMPAT=1 to create): %v", err)
	}
	var want []compatGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test ran %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Name != g.Name {
			t.Fatalf("case %d: golden %q vs run %q", i, w.Name, g.Name)
		}
		if w.Fingerprint != g.Fingerprint {
			t.Errorf("%s: fingerprint drifted: golden %s, got %s — existing journals would be orphaned", w.Name, w.Fingerprint, g.Fingerprint)
		}
		if !bytes.Equal(compactJSON(t, w.Result), compactJSON(t, g.Result)) {
			t.Errorf("%s: result artifact drifted from pre-refactor golden", w.Name)
		}
	}
}

func compactJSON(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
