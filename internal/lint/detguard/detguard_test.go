package detguard_test

import (
	"testing"

	"speedlight/internal/lint/linttest"
)

func TestDetGuard(t *testing.T) { linttest.Golden(t, "detguard") }
