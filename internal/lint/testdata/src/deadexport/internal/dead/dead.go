// Fixture: exported package-level identifiers under internal/, dead
// and alive.
package dead

func Dead() {} // want `exported func dead.Dead is unused outside its package's tests`

var DeadVar = 1 // want `exported var dead.DeadVar is unused`

type DeadType int // want `exported type dead.DeadType is unused`

const DeadConst = 2 // want `exported const dead.DeadConst is unused`

// OnlyOwnTest is referenced by dead_test.go alone, which does not count.
func OnlyOwnTest() {} // want `exported func dead.OnlyOwnTest is unused`

// UsedByOtherTest is referenced only from another package's test file.
func UsedByOtherTest() {}

// UsedByNested is referenced only from a nested module.
func UsedByNested() {}

// Internal is referenced only inside its own package.
const Internal = 3

func helper() int { return Internal }

// T is used through its receivers; Method is out of scope even though
// nothing calls it.
type T struct{}

func (T) Method() {}

var _ = helper
