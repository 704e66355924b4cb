// Package nested belongs to a separate module nested under the fixture
// root. It does not type-check, so a loader that walks into the nested
// module fails the whole load.
package nested

var Broken = undefinedName
