package nested

import d "deadexport/internal/dead"

var _ = d.UsedByNested
