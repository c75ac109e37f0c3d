// Files under testdata are not part of any build and do not count.
package ignored

import "deadexport/internal/dead"

var _ = dead.Dead
