package used

import (
	"testing"

	"rushprobe/internal/lint/testdata/src/deadpkg/internal/testonly"
)

// The import above is the only one testonly has; test files do not
// keep a package alive.
func TestHelper(t *testing.T) { _ = testonly.Helper }
