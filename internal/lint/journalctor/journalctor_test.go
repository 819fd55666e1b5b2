package journalctor_test

import (
	"testing"

	"speedlight/internal/lint/linttest"
)

func TestJournalCtor(t *testing.T) { linttest.Golden(t, "journalctor") }
