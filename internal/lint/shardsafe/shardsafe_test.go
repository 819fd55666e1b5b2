package shardsafe_test

import (
	"testing"

	"speedlight/internal/lint/linttest"
)

func TestShardSafe(t *testing.T) { linttest.Golden(t, "shardsafe") }
