package analysis_test

import (
	"testing"

	"dpbyz/internal/analysis"
	"dpbyz/internal/analysis/atest"
)

// Each analyzer runs over a seeded-regression package (every diagnostic it
// must produce is annotated // want) and a clean-idiom package (it must stay
// silent). The scratchpos package includes the PR-2 RunWorker repro;
// registrypos includes typo'd registry names through the real lookups.
// testonlyneg reaches methods through interfaces and generic instances.

func TestDetlint(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.Detlint}, "detpos", "detneg")
}

func TestHotPathAlloc(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.HotPathAlloc}, "hotpathpos", "hotpathneg")
}

func TestScratchAlias(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.ScratchAlias}, "scratchpos", "scratchneg")
}

func TestRegistryRef(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.RegistryRef}, "registrypos", "registryneg")
}

func TestTestOnly(t *testing.T) {
	atest.Run(t, "testdata", []*analysis.Analyzer{analysis.TestOnly}, "testonlypos", "testonlyneg")
}
