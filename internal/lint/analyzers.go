package lint

import "strings"

// Module is the import-path prefix of this repository's module. The
// scope tables below are written against it.
const Module = "rushprobe"

// deterministicPackages are the packages whose outputs feed goldens and
// the parallel==serial determinism tests: everything here must be a
// pure function of (inputs, seed).
var deterministicPackages = PathIn(
	Module+"/internal/des",
	Module+"/internal/sim",
	Module+"/internal/fleetsim",
	Module+"/internal/experiments",
	Module+"/internal/learn",
	Module+"/internal/opt",
	Module+"/internal/analysis",
	Module+"/internal/strategy",
	Module+"/internal/dist",
	Module+"/internal/scenario",
)

// persistencePackages hold code that writes bytes meant to be read back
// bit-identically (snapshots, the binary log, packed records).
var persistencePackages = PathIn(
	Module+"/internal/snaplog",
	Module+"/internal/learn",
	Module+"/internal/fleet",
)

// persistenceFiles restricts floatexact within the learn and fleet
// packages to their persistence files; snaplog is persistence wholesale.
// migrate.go is a persistence file: export/import reuse the binary
// snapshot frames, so a lossy float formatted there would corrupt a
// shard handoff exactly like a lossy snapshot write.
func persistenceFiles(importPath, base string) bool {
	switch importPath {
	case Module + "/internal/learn":
		return base == "record.go"
	case Module + "/internal/fleet":
		return base == "binsnap.go" || base == "snapshot.go" || base == "migrate.go"
	}
	return true
}

// durabilityPackages hold the snapshot/snaplog write paths whose fsync
// and error-handling discipline the durability analyzer enforces.
var durabilityPackages = PathIn(
	Module+"/internal/snaplog",
	Module+"/internal/fleet",
	Module+"/cmd/rushprobed",
)

// lockPackages hold the sharded data plane: code that takes a shard (or
// router) mutex on the serving path.
var lockPackages = PathIn(
	Module+"/internal/fleet",
	Module+"/internal/shardroute",
)

// Analyzers returns the full rushlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetClock, FloatExact, Durability, LockSafe, HotPath, DeadPkg}
}

// ByName resolves analyzer names (comma-separated -run style lists use
// it); unknown names return nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

func knownAnalyzerNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// trimVendor maps a possibly-vendored path to its import path. The
// repo has no vendor directory today; this keeps the scope tables
// honest if one ever appears.
func trimVendor(path string) string {
	if i := strings.LastIndex(path, "/vendor/"); i >= 0 {
		return path[i+len("/vendor/"):]
	}
	return path
}
