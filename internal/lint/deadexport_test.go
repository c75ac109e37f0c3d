package lint_test

import (
	"testing"

	"phasemon/internal/lint"
	"phasemon/internal/lint/linttest"
)

func TestDeadExport(t *testing.T) {
	linttest.Run(t, "testdata", lint.DeadExportAnalyzer, "deadexport/internal/dead")
}

func TestDeadExportMatchesInternalOnly(t *testing.T) {
	m := lint.DeadExportAnalyzer.Match
	if !m("phasemon/internal/core") || !m("phasemon/internal/lint/linttest") {
		t.Error("packages under internal/ not matched")
	}
	if m("phasemon/cmd/phased") || m("phasemon") || m("phasemon/internalx") {
		t.Error("package outside internal/ matched")
	}
}
