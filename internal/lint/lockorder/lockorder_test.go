package lockorder_test

import (
	"testing"

	"speedlight/internal/lint/linttest"
)

func TestLockOrder(t *testing.T) { linttest.Golden(t, "lockorder") }
