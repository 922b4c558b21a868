package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func tokenPosition(file string, line int) token.Position {
	return token.Position{Filename: file, Line: line}
}

// Fixtures live under testdata/<rule>/ and mark every expected finding with
// a trailing comment: // want `regex`. The harness fails on a want with no
// finding (missed true positive), on a finding with no want (false positive
// on the fixture's clean code), and on a line with more findings than wants
// (a duplicate report), so each fixture demonstrates both directions of the
// rule.

var fixtureLoader *Loader

func loaderForTest(t *testing.T) *Loader {
	t.Helper()
	if fixtureLoader != nil {
		return fixtureLoader
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	fixtureLoader = l
	return l
}

var wantRe = regexp.MustCompile("want\\s+`([^`]+)`")

// parseWants maps "file:line" to the expected-message regexes declared there.
func parseWants(t *testing.T, p *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regex %q: %v", m[1], err)
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

func checkFixture(t *testing.T, dir string, a *Analyzer) {
	t.Helper()
	pkg := loadFixture(t, dir)
	matchWants(t, parseWants(t, pkg), Run(pkg, []*Analyzer{a}))
}

// loadFixture loads the package under testdata/<dir>.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loaderForTest(t).Load(abs)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// matchWants fails on a want with no matching finding, a finding with no
// want, and a line with more findings than wants.
func matchWants(t *testing.T, wants map[string][]*regexp.Regexp, findings []Finding) {
	t.Helper()
	matched, reported := map[string]int{}, map[string]int{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		res := wants[key]
		reported[key]++
		if len(res) > 0 && reported[key] > len(res) {
			t.Errorf("duplicate finding (more than the %d wanted on this line): %s", len(res), f)
		}
		ok := false
		for _, re := range res {
			if re.MatchString(f.Message) {
				ok = true
				matched[key]++
			}
		}
		if !ok {
			t.Errorf("unexpected finding (false positive on fixture): %s", f)
		}
	}
	for key, res := range wants {
		if matched[key] < len(res) {
			t.Errorf("%s: want %d finding(s) matching %v, matched %d",
				key, len(res), patterns(res), matched[key])
		}
	}
}

func patterns(res []*regexp.Regexp) []string {
	out := make([]string, len(res))
	for i, re := range res {
		out[i] = re.String()
	}
	return out
}

func TestMapOrderFixture(t *testing.T)  { checkFixture(t, "maporder", MapOrder()) }
func TestSharedRNGFixture(t *testing.T) { checkFixture(t, "sharedrng", SharedRNG()) }
func TestNakedGoFixture(t *testing.T)   { checkFixture(t, "nakedgo", NakedGo()) }
func TestFloatKeyFixture(t *testing.T)  { checkFixture(t, "floatkey", FloatKey()) }
func TestCtxPollFixture(t *testing.T)   { checkFixture(t, "ctxpoll", CtxPoll()) }
func TestSpanEndFixture(t *testing.T)   { checkFixture(t, "spanend", SpanEnd()) }
func TestCtxFlowFixture(t *testing.T)   { checkFixture(t, "ctxflow", CtxFlow()) }
func TestGoLeakFixture(t *testing.T)    { checkFixture(t, "goleak", GoLeak()) }
func TestDetSourceFixture(t *testing.T) { checkFixture(t, "detsource", DetSource()) }

// The fixtures of the two rules merged into detsource and sharedrng keep
// their own packages: the merged rule must report exactly their wants.
func TestGlobalRandFixture(t *testing.T) { checkFixture(t, "globalrand", DetSource()) }
func TestRngEscapeFixture(t *testing.T)  { checkFixture(t, "rngescape", SharedRNG()) }

// TestVetCopyLocksFixture pins why the suite has no lock-copy rule of its
// own: go vet's copylocks check, which make vet and CI run, reports every
// copy in testdata/lockcopy (each line marked want, the _ = x discards
// included) and nothing in its clean half. The real tree holds no lock
// copies, so only this fixture shows a toolchain that stops reporting one
// of these shapes. It runs the go command that go test put first on PATH,
// the one that built this test binary.
func TestVetCopyLocksFixture(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command to run vet with: %v", err)
	}
	pkg := loadFixture(t, "lockcopy")
	cmd := exec.Command(goCmd, "vet", "-json", ".")
	cmd.Dir = pkg.Dir
	var out bytes.Buffer
	cmd.Stderr = &out // go vet -json writes its report to stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go vet -json: %v\n%s", err, out.String())
	}
	findings := vetFindings(t, out.String())
	for _, f := range findings {
		if f.Rule != "copylocks" {
			t.Errorf("go vet's %s check reported the fixture: %s", f.Rule, f)
		}
	}
	matchWants(t, parseWants(t, pkg), findings)
}

var vetPosnRe = regexp.MustCompile(`^(.+?):(\d+)(?::\d+)?$`)

// vetFindings decodes go vet -json output, a "# <package>" line followed by
// one object per package that maps each check to its diagnostics, into
// findings named after the check.
func vetFindings(t *testing.T, out string) []Finding {
	t.Helper()
	var body strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "#") {
			body.WriteString(line)
		}
	}
	var findings []Finding
	dec := json.NewDecoder(strings.NewReader(body.String()))
	for {
		var pkgs map[string]map[string][]struct{ Posn, Message string }
		if err := dec.Decode(&pkgs); err == io.EOF {
			return findings
		} else if err != nil {
			t.Fatalf("go vet -json output: %v\n%s", err, out)
		}
		for _, checks := range pkgs {
			for check, diags := range checks {
				for _, d := range diags {
					m := vetPosnRe.FindStringSubmatch(d.Posn)
					if m == nil {
						t.Fatalf("go vet position %q is not file:line:col", d.Posn)
					}
					line, _ := strconv.Atoi(m[2])
					findings = append(findings, Finding{Pos: tokenPosition(m[1], line), Rule: check, Message: d.Message})
				}
			}
		}
	}
}

// Reintroducing the PR 1 metrics.Silhouette map-order bug — float silhouette
// terms summed while ranging over the label→members map — must fail the
// linter. The fixture mirrors the original buggy loop shape.
func TestSilhouetteMapOrderRegressionFails(t *testing.T) {
	checkFixture(t, "silhouette", MapOrder())

	findings := Run(loadFixture(t, "silhouette"), []*Analyzer{MapOrder()})
	if len(findings) == 0 {
		t.Fatal("linter passed the reintroduced Silhouette map-order bug")
	}
	for _, f := range findings {
		if strings.Contains(f.Message, `float accumulation into "sum"`) {
			return
		}
	}
	t.Fatalf("no finding names the order-sensitive sum; got %v", findings)
}

// go statements inside internal/parallel are the one sanctioned fan-out
// point; nakedgo must stay silent there.
func TestNakedGoExemptsParallelPackage(t *testing.T) {
	abs, err := filepath.Abs("../parallel")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loaderForTest(t).Load(abs)
	if err != nil {
		t.Fatal(err)
	}
	if findings := Run(pkg, []*Analyzer{NakedGo()}); len(findings) != 0 {
		t.Fatalf("nakedgo flagged internal/parallel itself: %v", findings)
	}
}

// The ignore directive must only suppress the named rule.
func TestIgnoreDirectiveIsRuleScoped(t *testing.T) {
	set := ignoreSet{"f.go": {10: {"maporder"}}}
	mk := func(rule string, line int) Finding {
		return Finding{Rule: rule, Pos: tokenPosition("f.go", line)}
	}
	if !set.suppresses(mk("maporder", 10)) || !set.suppresses(mk("maporder", 11)) {
		t.Error("directive should suppress its rule on the same and next line")
	}
	if set.suppresses(mk("floatkey", 10)) {
		t.Error("directive must not suppress other rules")
	}
	if set.suppresses(mk("maporder", 12)) {
		t.Error("directive must not reach two lines down")
	}
}

func TestPackageDirsSkipsTestdata(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	var sawLint, sawParallel bool
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("PackageDirs returned testdata dir %s", d)
		}
		sawLint = sawLint || strings.HasSuffix(d, "internal/lint")
		sawParallel = sawParallel || strings.HasSuffix(d, "internal/parallel")
	}
	if !sawLint || !sawParallel {
		t.Errorf("PackageDirs missed expected packages (lint=%v parallel=%v)", sawLint, sawParallel)
	}
}
