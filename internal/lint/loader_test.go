package lint

import (
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
		// Both excluded files reference undefined names: if the loader fed
		// either to the type checker, Load would fail loudly.
		"tagged.go":                 "//go:build " + foreign + "\n\npackage scratch\n\nfunc Tagged() missingType { return platformOnly() }\n",
		"plusbuild.go":              "// +build " + foreign + "\n\npackage scratch\n\nfunc Legacy() missingType { return platformOnly() }\n",
		"suffix_" + foreign + ".go": "package scratch\n\nfunc Suffixed() missingType { return platformOnly() }\n",
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

func TestLoaderIncludeTestsToggle(t *testing.T) {
	files := map[string]string{
		"go.mod": "module scratch\n\ngo 1.21\n",
		"lib.go": "package scratch\n\nfunc Lib() int { return 1 }\n",
		// In-package test file: included only under IncludeTests.
		"lib_test.go": "package scratch\n\nfunc testHelper() int { return Lib() + 1 }\n",
		// External test package: never type-checkable into scratch, always dropped.
		"ext_test.go": "package scratch_test\n\nfunc externalHelper() int { return 0 }\n",
	}

	dir := writeModule(t, files)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load without tests: %v", err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("default load got %d files, want 1", len(pkg.Files))
	}
	if pkg.Types.Scope().Lookup("testHelper") != nil {
		t.Error("testHelper loaded without IncludeTests")
	}

	l2, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2.IncludeTests = true
	pkg2, err := l2.Load(dir)
	if err != nil {
		t.Fatalf("Load with tests: %v", err)
	}
	if len(pkg2.Files) != 2 {
		t.Fatalf("IncludeTests load got %d files, want 2 (lib.go + lib_test.go)", len(pkg2.Files))
	}
	scope := pkg2.Types.Scope()
	if scope.Lookup("testHelper") == nil {
		t.Error("testHelper missing with IncludeTests")
	}
	if scope.Lookup("externalHelper") != nil {
		t.Error("external test package file leaked into the package")
	}
}

func TestLoaderResolvesVendoredImport(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":                        "module scratch\n\ngo 1.21\n",
		"vendor/example.com/dep/dep.go": "package dep\n\n// Answer is the vendored export.\nconst Answer = 42\n",
		"use.go":                        "package scratch\n\nimport \"example.com/dep\"\n\nfunc Use() int { return dep.Answer }\n",
	})
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("Load with vendored import: %v", err)
	}
	imports := pkg.Types.Imports()
	found := false
	for _, imp := range imports {
		if imp.Path() == "example.com/dep" {
			found = true
		}
	}
	if !found {
		t.Fatalf("example.com/dep not among imports %v", imports)
	}
	// The vendored package's declarations must have really type-checked.
	dep, err := l.Import("example.com/dep")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Scope().Lookup("Answer") == nil {
		t.Error("Answer missing from vendored package scope")
	}
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
	for _, c := range cases {
		if got := buildTagSatisfied(c.tag); got != c.want {
			t.Errorf("buildTagSatisfied(%q) = %v, want %v", c.tag, got, c.want)
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
	for _, c := range cases {
		if got := filenameMatchesPlatform(c.name); got != c.want {
			t.Errorf("filenameMatchesPlatform(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}
