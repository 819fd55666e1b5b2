// Package linttest runs the built speedlightvet through `go vet`, the
// one way an analyzer ever runs, for the golden suites and the
// real-tree kill-rate: there is no second loader to keep honest.
//
// A golden suite is a directory holding a GOPATH:
//
//	<analyzer>/testdata/src/<pkg>/<files>.go
//
// Each directory under src is one package whose import path is its
// bare directory name, so the fake "packet" or "sim" a rule binds to by
// name can sit beside the code that breaks the rule. Expectations are
// comments of the form
//
//	expr // want "regexp"
//	expr // want `first` `second`
//
// where each quoted (or backquoted) string is a regular expression that
// must match a diagnostic reported on that line. Diagnostics without a
// matching want, and wants without a matching diagnostic, fail the
// test.
package linttest

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	// The tool is built by a child process go test's result cache
	// cannot see; linking the analyzers into every suite's test binary
	// is what invalidates a cached "ok" when one of them changes.
	_ "speedlight/internal/lint"
)

// Finding is one diagnostic line of the tool: "file:line:col:
// [analyzer] message".
type Finding struct {
	File     string // absolute
	Line     int
	Analyzer string
	Message  string
}

var (
	findingRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: \[(\w+)\] (.*)$`)
	wantRE    = regexp.MustCompile(`// want (.+)$`)
	patternRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

// Tool builds cmd/speedlightvet into the test's temporary directory
// and returns the binary's path. The caller's working directory must
// be inside the module.
func Tool(t testing.TB) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "speedlightvet")
	if out, err := goCmd(".", nil, "build", "-o", bin, "speedlight/cmd/speedlightvet"); err != nil {
		t.Fatalf("go build speedlightvet: %v\n%s", err, out)
	}
	return bin
}

// Vet runs `go vet -vettool=tool args...` in dir and returns the
// tool's findings, each once (a package and its test variant report
// the shared files twice). env is appended to a hermetic environment.
// Any output that is neither a finding nor a package header fails the
// test: a mutant that does not type-check must not pass for killed.
func Vet(t testing.TB, tool, dir string, env []string, args ...string) []Finding {
	t.Helper()
	out, err := goCmd(dir, env, append([]string{"vet", "-vettool=" + tool}, args...)...)
	// A non-zero exit is how go vet says "findings"; the output decides.
	if exit := (*exec.ExitError)(nil); err != nil && !errors.As(err, &exit) {
		t.Fatalf("go vet: %v", err)
	}
	var found []Finding
	for _, line := range strings.Split(out, "\n") {
		m := findingRE.FindStringSubmatch(line)
		switch {
		case m != nil:
			n, _ := strconv.Atoi(m[2])
			f := Finding{File: m[1], Line: n, Analyzer: m[3], Message: m[4]}
			if !filepath.IsAbs(f.File) {
				f.File = filepath.Join(dir, f.File)
			}
			if !slices.Contains(found, f) {
				found = append(found, f)
			}
		case line != "" && !strings.HasPrefix(line, "#"):
			t.Errorf("go vet %s: %s", strings.Join(args, " "), line)
		}
	}
	return found
}

// goCmd runs the go command hermetically (no inherited GOFLAGS or
// workspace) and returns its standard error.
func goCmd(dir string, env []string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(append(os.Environ(), "GOFLAGS=", "GOWORK=off"), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stderr.String(), err
}

// Golden vets every package of the GOPATH at ./testdata and checks the
// named analyzer's findings against the // want comments of its
// sources.
func Golden(t *testing.T, analyzer string) {
	t.Helper()
	gopath, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(gopath, "src")
	found := Vet(t, Tool(t), src, []string{"GO111MODULE=off", "GOPATH=" + gopath}, "./...")

	type place struct {
		file string
		line int
	}
	wants := map[place][]string{}
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				for _, lit := range patternRE.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s:%d: bad want %s: %v", path, i+1, lit, err)
					}
					wants[place{path, i + 1}] = append(wants[place{path, i + 1}], pat)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		if f.Analyzer != analyzer {
			continue // another rule's opinion of this rule's fixtures
		}
		at := place{f.File, f.Line}
		i := slices.IndexFunc(wants[at], func(pat string) bool {
			ok, err := regexp.MatchString(pat, f.Message)
			if err != nil {
				t.Errorf("%s:%d: bad want regexp: %v", f.File, f.Line, err)
			}
			return ok
		})
		if i < 0 {
			t.Errorf("%s:%d: unexpected diagnostic: %s", f.File, f.Line, f.Message)
			continue
		}
		wants[at] = slices.Delete(wants[at], i, i+1)
	}
	for at, pats := range wants {
		for _, pat := range pats {
			t.Errorf("%s:%d: no diagnostic matching %q", at.file, at.line, pat)
		}
	}
}
