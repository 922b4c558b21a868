package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
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
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loaderForTest(t).Load(abs)
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, pkg)
	findings := Run(pkg, []*Analyzer{a})

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
func TestObsNilFixture(t *testing.T)    { checkFixture(t, "obsnil", ObsNil()) }
func TestSpanEndFixture(t *testing.T)   { checkFixture(t, "spanend", SpanEnd()) }
func TestCtxFlowFixture(t *testing.T)   { checkFixture(t, "ctxflow", CtxFlow()) }
func TestLockCopyFixture(t *testing.T)  { checkFixture(t, "lockcopy", LockCopy()) }
func TestGoLeakFixture(t *testing.T)    { checkFixture(t, "goleak", GoLeak()) }
func TestDetSourceFixture(t *testing.T) { checkFixture(t, "detsource", DetSource()) }

// The fixtures of the two rules merged into detsource and sharedrng keep
// their own packages: the merged rule must report exactly their wants.
func TestGlobalRandFixture(t *testing.T) { checkFixture(t, "globalrand", DetSource()) }
func TestRngEscapeFixture(t *testing.T)  { checkFixture(t, "rngescape", SharedRNG()) }

// internal/obs is the one package allowed to call Recorder methods
// directly: its helpers and sinks ARE the guard. The real package must
// load clean under the rule's exemption.
func TestObsNilExemptsObsPackage(t *testing.T) {
	pkg, err := loaderForTest(t).Load("internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	if findings := Run(pkg, []*Analyzer{ObsNil()}); len(findings) != 0 {
		t.Errorf("obsnil flagged the exempt internal/obs package: %v", findings)
	}
}

// Reintroducing the PR 1 metrics.Silhouette map-order bug — float silhouette
// terms summed while ranging over the label→members map — must fail the
// linter. The fixture mirrors the original buggy loop shape.
func TestSilhouetteMapOrderRegressionFails(t *testing.T) {
	checkFixture(t, "silhouette", MapOrder())

	abs, err := filepath.Abs("testdata/silhouette")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loaderForTest(t).Load(abs)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkg, []*Analyzer{MapOrder()})
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
