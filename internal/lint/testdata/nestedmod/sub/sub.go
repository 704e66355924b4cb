// Package sub is an ordinary subdirectory package: the loader must walk it.
package sub

// Answer is a constant the root package imports.
const Answer = 42
