package hotalloc_test

import (
	"testing"

	"speedlight/internal/lint/linttest"
)

func TestHotAlloc(t *testing.T) { linttest.Golden(t, "hotalloc") }
