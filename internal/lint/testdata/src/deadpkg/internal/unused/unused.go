// Package unused is imported by nothing.
package unused // want `package rushprobe/internal/lint/testdata/src/deadpkg/internal/unused is imported by no non-test package`

// Orphan has no readers.
const Orphan = 1
