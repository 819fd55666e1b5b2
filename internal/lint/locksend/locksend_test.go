package locksend_test

import (
	"testing"

	"speedlight/internal/lint/linttest"
)

func TestLockSend(t *testing.T) { linttest.Golden(t, "lockorder") }
