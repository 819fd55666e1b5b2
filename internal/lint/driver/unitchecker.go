package driver

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"

	"speedlight/internal/lint/analysis"
)

// vetConfig mirrors the JSON the go command writes to $WORK/.../vet.cfg
// for each compilation unit when invoked as `go vet -vettool=...`.
// Field names must match cmd/go/internal/work's vetConfig exactly.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool

	GoVersion string

	SucceedOnTypecheckFailure bool

	VetxOnly    bool
	VetxOutput  string
	PackageVetx map[string]string
}

// runUnit analyzes one compilation unit described by a vet.cfg file.
// It must always write the VetxOutput file — even empty — because the
// go command treats a missing output as tool failure and caches on it.
func runUnit(cfgFile string, analyzers []*analysis.Analyzer) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", cfgFile, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return 0, fmt.Errorf("writing vetx output: %w", err)
		}
	}
	if cfg.VetxOnly {
		// Dependencies are analyzed only for facts, which this driver
		// does not implement; the (empty) vetx file is all cmd/go needs.
		return 0, nil
	}
	fset := token.NewFileSet()
	var files []string
	for _, name := range cfg.GoFiles {
		files = append(files, absJoin(cfg.Dir, name))
	}
	imp := ExportImporter(fset, cfg.ImportMap, cfg.PackageFile)
	cp, err := TypeCheck(fset, cfg.ImportPath, files, imp, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}
	diags, err := RunAnalyzers(cp, analyzers)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	return len(diags), nil
}
