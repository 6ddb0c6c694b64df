// Command app is the fixture's main: it keeps internal/used alive and
// is never itself reported.
package main

import "rushprobe/internal/lint/testdata/src/deadpkg/internal/used"

func main() { _ = used.Answer }
