package other

import (
	"testing"

	"deadexport/internal/dead"
)

func TestUses(t *testing.T) { dead.UsedByOtherTest() }
