package poolown_test

import (
	"testing"

	"speedlight/internal/lint/linttest"
)

func TestPoolOwn(t *testing.T) { linttest.Golden(t, "poolown") }
