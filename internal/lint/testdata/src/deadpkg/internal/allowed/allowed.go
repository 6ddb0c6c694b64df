// Package allowed is imported by nothing, on purpose.
//
//rushlint:allow deadpkg — fixture for a deliberately unimported package
package allowed

// Kept has no readers in the module.
const Kept = 1
