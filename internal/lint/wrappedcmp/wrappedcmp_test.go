package wrappedcmp_test

import (
	"testing"

	"speedlight/internal/lint/linttest"
)

func TestWrappedCmp(t *testing.T) { linttest.Golden(t, "wrappedcmp") }
