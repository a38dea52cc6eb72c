package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// loadGolden reads the pinned learned trees, one <scenario id>.txt per
// registered scenario.
func loadGolden(dir string) (map[string]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, fmt.Errorf("golden trees: %w", err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("golden trees: none under %s", dir)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("golden trees: %w", err)
		}
		out[strings.TrimSuffix(filepath.Base(f), ".txt")] = string(b)
	}
	return out, nil
}
