package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeModule lays out a scratch module in t.TempDir from a map of
// relative path -> contents and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// otherGOOS returns a real GOOS that is not the one the test runs on, so a
// constraint naming it is guaranteed false here.
func otherGOOS() string {
	if runtime.GOOS == "windows" {
		return "linux"
	}
	return "windows"
}

func TestLoaderSkipsBuildConstrainedFiles(t *testing.T) {
	foreign := otherGOOS()
	dir := writeModule(t, map[string]string{
		"go.mod":  "module scratch\n\ngo 1.21\n",
		"kept.go": "package scratch\n\nfunc Kept() int { return 1 }\n",
		// Every excluded file references undefined names: if the loader fed
		// one to the type checker, Load would fail loudly.
		"tagged.go":                 "//go:build " + foreign + "\n\npackage scratch\n\nfunc Tagged() missingType { return platformOnly() }\n",
		"plusbuild.go":              "// +build " + foreign + "\n\npackage scratch\n\nfunc Legacy() missingType { return platformOnly() }\n",
		"suffix_" + foreign + ".go": "package scratch\n\nfunc Suffixed() missingType { return platformOnly() }\n",
		// An ignored generator in another package does not split the package.
		"gen.go": "//go:build ignore\n\npackage main\n\nfunc main() { platformOnly() }\n",
	})
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("got %d files, want 1 (constrained files must be skipped)", len(pkg.Files))
	}
	scope := pkg.Types.Scope()
	if scope.Lookup("Kept") == nil {
		t.Error("Kept missing from package scope")
	}
	for _, name := range []string{"Tagged", "Legacy", "Suffixed"} {
		if scope.Lookup(name) != nil {
			t.Errorf("%s leaked into the package scope from an excluded file", name)
		}
	}
}

func TestLoaderCurrentPlatformFilesLoad(t *testing.T) {
	// The mirror-image check: constraints naming THIS platform keep the
	// file, so the loader is filtering, not just dropping everything tagged.
	dir := writeModule(t, map[string]string{
		"go.mod":    "module scratch\n\ngo 1.21\n",
		"tagged.go": "//go:build " + runtime.GOOS + "\n\npackage scratch\n\nfunc Native() int { return 1 }\n",
		"suffix_" + runtime.GOOS + "_" + runtime.GOARCH + ".go": "package scratch\n\nfunc NativeSuffix() int { return 2 }\n",
	})
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("got %d files, want 2 (current-platform constraints must pass)", len(pkg.Files))
	}
}

// loadedFuncs writes one file per name, each declaring func F<i>, loads the
// module, and reports which files the loader kept.
func loadedFuncs(t *testing.T, names []string, header func(i int) string) []bool {
	t.Helper()
	files := map[string]string{"go.mod": "module scratch\n\ngo 1.21\n"}
	for i, name := range names {
		files[name] = fmt.Sprintf("%spackage scratch\n\nfunc F%d() int { return %d }\n", header(i), i, i)
	}
	dir := writeModule(t, files)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	kept := make([]bool, len(names))
	for i := range names {
		kept[i] = pkg.Types.Scope().Lookup(fmt.Sprintf("F%d", i)) != nil
	}
	return kept
}

func TestBuildTagSatisfied(t *testing.T) {
	cases := []struct {
		tag  string
		want bool
	}{
		{runtime.GOOS, true},
		{runtime.GOARCH, true},
		{otherGOOS(), false},
		{"go1.1", true},     // ancient release: always satisfied
		{"go1.9999", false}, // future release: never satisfied
		{"sometag", false},  // custom tags are unset
		{"cgo", false},
	}
	names := make([]string, len(cases))
	for i := range cases {
		names[i] = fmt.Sprintf("tag%d.go", i)
	}
	kept := loadedFuncs(t, names, func(i int) string { return "//go:build " + cases[i].tag + "\n\n" })
	for i, c := range cases {
		if kept[i] != c.want {
			t.Errorf("file under //go:build %s loaded = %v, want %v", c.tag, kept[i], c.want)
		}
	}
}

func TestFilenameMatchesPlatform(t *testing.T) {
	foreign := otherGOOS()
	cases := []struct {
		name string
		want bool
	}{
		{"plain.go", true},
		{"x_" + runtime.GOOS + ".go", true},
		{"x_" + foreign + ".go", false},
		{"x_" + runtime.GOOS + "_" + runtime.GOARCH + ".go", true},
		{"x_" + foreign + "_" + runtime.GOARCH + ".go", false},
		{"x_" + foreign + "_test.go", false},
		{foreign + ".go", true}, // bare OS name carries no constraint
		{"many_words_here.go", true},
	}
	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.name
	}
	kept := loadedFuncs(t, names, func(int) string { return "" })
	for i, c := range cases {
		if kept[i] != c.want {
			t.Errorf("file %s loaded = %v, want %v", c.name, kept[i], c.want)
		}
	}
}

func TestLoaderDropsTestFiles(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.21\n",
		"lib.go": "package scratch\n\nfunc Lib() int { return 1 }\n",
		// In-package and external test files: never loaded.
		"lib_test.go": "package scratch\n\nfunc testHelper() int { return Lib() + 1 }\n",
		"ext_test.go": "package scratch_test\n\nfunc externalHelper() int { return 0 }\n",
	})
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("got %d files, want 1 (lib.go)", len(pkg.Files))
	}
	scope := pkg.Types.Scope()
	if scope.Lookup("testHelper") != nil {
		t.Error("in-package test file leaked into the package")
	}
	if scope.Lookup("externalHelper") != nil {
		t.Error("external test package file leaked into the package")
	}
}
