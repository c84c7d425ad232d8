package cdl

import (
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/xmldoc/xmldoctest"
)

const marker = "<ComponentDefinitions"

func decodeString(doc string) (*Definitions, error) { return decode(strings.NewReader(doc)) }

// decodeOracle decodes doc with encoding/xml into the tagged structs: the
// reference decode is checked against.
func decodeOracle(doc string) (*Definitions, error) {
	var defs Definitions
	if err := xml.NewDecoder(strings.NewReader(doc)).Decode(&defs); err != nil {
		return nil, err
	}
	return &defs, nil
}

// TestDecodeMatchesOracle reads every CDL document in the repository, and
// each with every XML feature a well-formed document may use added, and
// checks that decode reads each as encoding/xml does.
func TestDecodeMatchesOracle(t *testing.T) {
	xmldoctest.MatchesOracle(t, marker, decodeString, decodeOracle)
}

// FuzzParseCDL checks that Parse never panics and that decode accepts
// nothing encoding/xml rejects or reads differently.
func FuzzParseCDL(f *testing.F) {
	for _, doc := range xmldoctest.Seeds(f, marker, decodeOracle) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		if xmldoctest.Sound(t, doc, decodeString, decodeOracle) {
			_, _ = Parse(strings.NewReader(doc))
		}
	})
}

// TestParseAllocs bounds what parsing the paper's listing allocates;
// encoding/xml took 192 allocations for it.
func TestParseAllocs(t *testing.T) {
	const limit = 32
	n := testing.AllocsPerRun(100, func() {
		if _, err := Parse(strings.NewReader(paperCDL)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", n)
	if n > limit {
		t.Errorf("parsing the paper's listing took %.0f allocations, want at most %d", n, limit)
	}
}
