package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownName(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "table1,tabel1"}, &out, &errOut); code != 2 {
		t.Fatalf("exit status %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("ran experiments despite the unknown name:\n%s", out.String())
	}
	for _, want := range []string{`"tabel1"`, "table1", "fig13", "ablations", "usecases"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("error output missing %s:\n%s", want, errOut.String())
		}
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "table1", "-csvdir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit status %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "### table1 ###") {
		t.Errorf("table1 not printed:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "Resource,") || !strings.Contains(string(data), "Physical Stages") {
		t.Errorf("table1.csv:\n%s", data)
	}
}
