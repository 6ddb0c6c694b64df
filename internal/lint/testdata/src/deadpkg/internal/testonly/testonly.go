// Package testonly is imported only by a test file.
package testonly // want `package rushprobe/internal/lint/testdata/src/deadpkg/internal/testonly is imported by no non-test package`

// Helper is what the test reads.
const Helper = 1
