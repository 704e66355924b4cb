package loader

import (
	"reflect"
	"testing"
)

// TestLoadSkipsNestedModules: "./..." stops at a subdirectory with its
// own go.mod, as the go tool does. The fixture's nested module does not
// type-check, so walking into it would fail the load outright.
func TestLoadSkipsNestedModules(t *testing.T) {
	pkgs, err := Load(Config{Dir: "../testdata/nestedmod", Mode: Module}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if want := []string{"example.com/outer", "example.com/outer/sub"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
	if _, err := Load(Config{Dir: "../testdata/nestedmod", Mode: Module}, "./nested/..."); err == nil {
		t.Fatal("pattern into the nested module matched packages")
	}
}
