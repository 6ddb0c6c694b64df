// Package used is imported by a main, so it is alive.
package used

// Answer is what the main reads.
const Answer = 42
