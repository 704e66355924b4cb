// Package outer is the root package of the nested-module loader fixture.
package outer

import "example.com/outer/sub"

// Answer re-exports sub.Answer so the root package has an in-module import.
const Answer = sub.Answer
