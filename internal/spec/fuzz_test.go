package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec drives the strict Spec decoder with arbitrary documents: any
// input that Parse accepts must re-encode canonically and re-parse to the
// identical value (round-trip identity), and everything else must be
// rejected with an error — never a panic. This is the config-file analogue
// of the wire codec's FuzzDecodeFrame and runs next to it in the CI fuzz
// smoke step.
func FuzzParseSpec(f *testing.F) {
	// Each seed carries its verdict, checked before the fuzz body runs:
	// reject "" means Parse accepts the document; otherwise Parse must fail
	// with an error containing reject.
	type seed struct{ doc, reject string }
	var seeds []seed
	if golden, err := os.ReadFile(filepath.Join("testdata", "golden_spec.json")); err == nil {
		seeds = append(seeds, seed{string(golden), ""})
	}
	for _, s := range []Spec{fullSpec(), heteroSpec()} {
		if b, err := s.JSON(); err == nil {
			seeds = append(seeds, seed{string(b), ""})
		}
	}
	const base = `"gar":{"name":"average","n":5},"steps":10,"batchSize":4,"learningRate":1,"data":{"n":50,"features":3}`
	seeds = append(seeds,
		seed{`{` + base + `,"seed":2}`, ""},
		seed{`{"version":1,"stepz":10}`, `unknown field "stepz"`},
		seed{`{"version":99}`, "unsupported spec version: 99"},
		seed{`{` + base + `,"partition":{"name":"dirichlet","beta":1e308}}`, ""}, // extreme number
		seed{`{"gar":{"name":"krum","n":-4,"f":9}}`, "invalid worker count"},
		seed{`{"membership":{"minWorkers":2,"evictAfter":3}}`, `unknown field "evictAfter"`},
		seed{`{` + base + `,"membership":{"minWorkers":9,"maxWorkers":4,"fRatio":0.9,"epochRounds":0}}`, "max workers 4 below min 9"},
		seed{`{"gar":{"name":"krum","n":11,"f":2,"kernel":"incremental"},"steps":10,"batchSize":4,"learningRate":1,"data":{"n":50,"features":3}}`, `kernel "incremental" was retired`},
		seed{`{"gar":{"name":"krum","n":11,"f":2,"kernel":"sketched"},"steps":10,"batchSize":4,"learningRate":1,"data":{"n":50,"features":3}}`, `kernel "sketched" was retired`},
		seed{`{"gar":{"name":"krum","n":11,"f":2,"sketchDim":32},"steps":10,"batchSize":4,"learningRate":1,"data":{"n":50,"features":3}}`, `unknown field "sketchDim"`}, // retired knob
		seed{`not json at all`, "invalid character"},
		seed{`{` + base + `,"seed":18446744073709551615}`, ""}, // max uint64
		seed{``, "unexpected end of JSON input"},
	)
	for _, s := range seeds {
		_, err := Parse([]byte(s.doc))
		if s.reject == "" && err != nil {
			f.Errorf("seed %.70q rejected (%v), want accepted", s.doc, err)
		}
		if s.reject != "" && (err == nil || !strings.Contains(err.Error(), s.reject)) {
			f.Errorf("seed %.70q: error %v, want one containing %q", s.doc, err, s.reject)
		}
		f.Add([]byte(s.doc))
	}

	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Parse(doc)
		if err != nil {
			return // graceful rejection is the contract for invalid input
		}
		// Valid documents must round-trip: canonical encode → parse →
		// identical Spec (modulo the version tag the encoder fills in).
		enc, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted spec failed to encode: %v", err)
		}
		again, err := Parse(enc)
		if err != nil {
			t.Fatalf("canonical encoding failed to re-parse: %v\n%s", err, enc)
		}
		want := *s
		want.SchemaVersion = Version
		if !reflect.DeepEqual(*again, want) {
			t.Fatalf("round trip not identity:\n got %+v\nwant %+v", *again, want)
		}
	})
}
