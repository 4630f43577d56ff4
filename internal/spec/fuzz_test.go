package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseSpec drives the strict Spec decoder with arbitrary documents: any
// input that Parse accepts must re-encode canonically and re-parse to the
// identical value (round-trip identity), and everything else must be
// rejected with an error — never a panic. This is the config-file analogue
// of the wire codec's FuzzDecodeFrame and runs next to it in the CI fuzz
// smoke step.
func FuzzParseSpec(f *testing.F) {
	if golden, err := os.ReadFile(filepath.Join("testdata", "golden_spec.json")); err == nil {
		f.Add(golden)
	}
	if b, err := fullSpec().JSON(); err == nil {
		f.Add(b)
	}
	if b, err := heteroSpec().JSON(); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"gar":{"name":"average","n":5},"steps":10,"batchSize":4,"learningRate":1,"seed":2,"data":{"n":50,"features":3}}`))
	f.Add([]byte(`{"version":1,"stepz":10}`))                        // unknown field
	f.Add([]byte(`{"version":99}`))                                  // bad version
	f.Add([]byte(`{"partition":{"name":"dirichlet","beta":1e308}}`)) // extreme number
	f.Add([]byte(`{"gar":{"name":"krum","n":-4,"f":9}}`))            // bad system size
	f.Add([]byte(`{"membership":{"minWorkers":2,"evictAfter":3}}`))  // unknown membership field
	f.Add([]byte(`{"membership":{"minWorkers":9,"maxWorkers":4,"fRatio":0.9,"epochRounds":0}}`))
	f.Add([]byte(`{"gar":{"name":"krum","n":11,"f":2,"kernel":"incremental"},"steps":10,"batchSize":4,"learningRate":1,"data":{"n":50,"features":3}}`)) // retired kernel
	f.Add([]byte(`{"gar":{"name":"krum","n":11,"f":2,"kernel":"sketched"},"steps":10,"batchSize":4,"learningRate":1,"data":{"n":50,"features":3}}`))    // retired kernel
	f.Add([]byte(`{"gar":{"name":"krum","n":11,"f":2,"sketchDim":32},"steps":10,"batchSize":4,"learningRate":1,"data":{"n":50,"features":3}}`))         // retired knob: unknown field
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"seed":18446744073709551615}`)) // max uint64
	f.Add([]byte(``))

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
