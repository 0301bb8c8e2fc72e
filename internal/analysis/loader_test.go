package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPackageDirsSkipsNestedModules pins PackageDirs to the set `go list
// ./...` names: a directory below the root that holds its own go.mod is a
// separate module, so neither it nor anything under it is walked, while
// ordinary subpackages (and the root itself) are.
func TestPackageDirsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for path, body := range map[string]string{
		"go.mod":              "module m\n",
		"a.go":                "package m\n",
		"sub/b.go":            "package sub\n",
		"sub/b_test.go":       "package sub\n",
		"nested/go.mod":       "module n\n",
		"nested/c.go":         "package n\n",
		"nested/inner/d.go":   "package inner\n",
		"testdata/e.go":       "package e\n",
		"onlytests/f_test.go": "package onlytests\n",
		"deep/nested2/go.mod": "module n2\n",
		"deep/nested2/g.go":   "package n2\n",
		"deep/h.go":           "package deep\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{root, filepath.Join(root, "deep"), filepath.Join(root, "sub")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PackageDirs = %v, want %v", got, want)
	}
}
