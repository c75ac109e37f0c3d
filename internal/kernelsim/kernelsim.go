// Package kernelsim models the software side of the paper's deployed
// system: the loadable kernel module (LKM) whose performance
// monitoring interrupt (PMI) handler implements the Figure 8 flow —
// stop/read counters, translate readings to a phase, update the
// predictor, predict the next phase, translate it to a DVFS setting,
// apply it if it changed, and rearm the counters.
//
// The module also keeps the kernel log of per-interval counter values
// and predictions that user-level tools read through system calls, and
// it accounts for its own execution cost so the paper's
// "no observable overheads" claim is a checkable quantity rather than
// an assertion.
package kernelsim

import (
	"fmt"

	"phasemon/internal/core"
	"phasemon/internal/dvfs"
	"phasemon/internal/machine"
	"phasemon/internal/phase"
	"phasemon/internal/pmc"
	"phasemon/internal/telemetry"
	"phasemon/internal/trace"
)

// Counter slot assignment: the paper dedicates one counter to
// UOPS_RETIRED (to pace the PMI) and the remaining one to BUS_TRAN_MEM.
const (
	SlotUops = 0
	SlotMem  = 1
)

// Config parameterizes the module.
type Config struct {
	// GranularityUops is the sampling interval; the paper uses 100M.
	GranularityUops uint64
	// Monitor supplies classification and prediction. Required.
	Monitor *core.Monitor
	// Translation maps predicted phases to DVFS settings. Nil disables
	// dynamic management (monitoring-only deployment).
	Translation *dvfs.Translation
	// Actuator, when non-nil, takes precedence over Translation: it
	// chooses the next interval's setting dynamically, with access to
	// platform state (e.g. die temperature for thermal throttling).
	Actuator Actuator
	// BaseHandlerCostS is the fixed per-invocation handler cost
	// (counter reads, bookkeeping). Zero selects a 2 µs default.
	BaseHandlerCostS float64
	// PerEntrySearchCostS is the additional handler cost per PHT entry
	// for predictors with associative tables — the reason the paper
	// deploys a 128-entry rather than 1024-entry PHT. Zero selects a
	// 20 ns default.
	PerEntrySearchCostS float64
	// BudgetS is the interrupt-context time budget; exceeding it trips
	// the module's constraint violation counter. Zero selects 50 µs.
	BudgetS float64
	// LogCapacity bounds the kernel log (ring buffer); zero selects
	// 65536 entries. An explicit capacity is also a sizing promise: the
	// log's backing array is preallocated in full at NewModule, so the
	// PMI path never grows it — callers that know the run length (the
	// governor, the fleet engine) pass it and get an allocation-free
	// steady state from the first interval. With the zero default the
	// log grows geometrically on demand up to the bound, which is
	// amortized-free but not allocation-free until it stops growing.
	LogCapacity int
	// Telemetry, when non-nil, receives live instrumentation from the
	// PMI path; Load also wires it into the monitor, predictor, and
	// DVFS controller. Nil (the default) leaves the run unobserved at
	// near-zero cost.
	Telemetry *telemetry.Hub
}

func (c Config) withDefaults() Config {
	if c.GranularityUops == 0 {
		c.GranularityUops = 100_000_000
	}
	if c.BaseHandlerCostS <= 0 {
		c.BaseHandlerCostS = 2e-6
	}
	if c.PerEntrySearchCostS <= 0 {
		c.PerEntrySearchCostS = 20e-9
	}
	if c.BudgetS <= 0 {
		c.BudgetS = 50e-6
	}
	if c.LogCapacity <= 0 {
		c.LogCapacity = 65536
	}
	return c
}

// Entry is one kernel-log record: the raw counter deltas and the
// classification/prediction outcome of one sampling interval.
type Entry struct {
	Index     int
	Uops      uint64
	MemTx     uint64
	Cycles    uint64
	MemPerUop float64
	UPC       float64
	Actual    phase.ID
	Predicted phase.ID
	// Setting is the DVFS setting the logged interval executed at
	// (the actuation decided here takes effect for the *next*
	// interval).
	Setting dvfs.Setting
}

// Actuator chooses the DVFS setting to apply for the upcoming
// interval, given the predicted phase. Static translations are the
// Table 2 case; dynamic actuators implement management goals that
// depend on platform state, such as thermal limits or power caps.
type Actuator interface {
	Choose(m *machine.Machine, predicted phase.ID) dvfs.Setting
}

// Module is the loaded LKM.
type Module struct {
	cfg    Config
	loaded bool

	lastTSC uint64
	index   int

	log      []Entry
	logStart int // ring buffer start when saturated

	budgetViolations int
}

// NewModule validates the configuration and returns an unloaded module.
func NewModule(cfg Config) (*Module, error) {
	if cfg.Monitor == nil {
		return nil, fmt.Errorf("kernelsim: config requires a Monitor")
	}
	prealloc := cfg.LogCapacity > 0
	cfg = cfg.withDefaults()
	if cfg.GranularityUops >= 1<<pmc.CounterWidth {
		return nil, fmt.Errorf("kernelsim: granularity %d exceeds counter width", cfg.GranularityUops)
	}
	mod := &Module{cfg: cfg}
	if prealloc {
		mod.log = make([]Entry, 0, cfg.LogCapacity)
	}
	return mod, nil
}

// Load installs the module on the machine: it configures and arms the
// counters (the one-time initialization of Figure 8) and starts them.
func (mod *Module) Load(m *machine.Machine) error {
	if tel := mod.cfg.Telemetry; tel != nil {
		// Observation is wired at construction (the monitor via
		// core.WithTelemetry, the machine/controller via their configs'
		// Telemetry field); the deprecated retrofit setters are gone.
		// A module hub that differs from the components' is a wiring
		// bug, caught here instead of silently splitting the metrics.
		if mod.cfg.Monitor.Telemetry() != tel {
			return fmt.Errorf("kernelsim: module telemetry differs from monitor's; build the monitor with core.WithTelemetry")
		}
		if m.DVFS().Telemetry() != tel {
			return fmt.Errorf("kernelsim: module telemetry differs from DVFS controller's; set machine.Config.Telemetry")
		}
	}
	b := m.PMCs()
	if err := b.Configure(SlotUops, pmc.EventUopsRetired, true); err != nil {
		return err
	}
	if err := b.Configure(SlotMem, pmc.EventBusTranMem, false); err != nil {
		return err
	}
	if err := b.Arm(SlotUops, mod.cfg.GranularityUops); err != nil {
		return err
	}
	if err := b.Write(SlotMem, 0); err != nil {
		return err
	}
	b.WriteTSC(0)
	mod.lastTSC = 0
	b.Start()
	mod.loaded = true
	return nil
}

// Unload stops the counters and marks the module unloaded. The kernel
// log remains readable, as the paper's user tools read it after runs.
func (mod *Module) Unload(m *machine.Machine) {
	m.PMCs().Stop()
	mod.loaded = false
}

// Loaded reports whether the module is installed.
func (mod *Module) Loaded() bool { return mod.loaded }

// HandlePMI implements machine.Handler with the exact Figure 8 flow.
//
//lint:hotpath
func (mod *Module) HandlePMI(m *machine.Machine) float64 {
	if !mod.loaded {
		return 0
	}
	b := m.PMCs()

	// Stop and read the counters.
	b.Stop()
	memTx, _ := b.Read(SlotMem)
	tsc := b.TSC()
	cycles := tsc - mod.lastTSC
	uops := mod.cfg.GranularityUops // the PMI fires exactly at the granularity

	// Translate counter readings to the corresponding phase and update
	// the predictor state / predict the next phase.
	s := phase.Sample{
		MemPerUop: safeDiv(float64(memTx), float64(uops)),
		UPC:       safeDiv(float64(uops), float64(cycles)),
	}
	actual, next := mod.cfg.Monitor.Step(s)

	// The logged interval ran at the setting current *before* this
	// handler's actuation.
	ranAt := m.DVFS().Current()

	// Translate the predicted phase to a DVFS setting and apply it if
	// it differs from the current one; it governs the next interval.
	switch {
	case mod.cfg.Actuator != nil:
		_, _ = m.DVFS().Set(mod.cfg.Actuator.Choose(m, next))
	case mod.cfg.Translation != nil:
		_, _ = m.DVFS().Set(mod.cfg.Translation.Setting(next))
	}

	// Log the sample for user-level evaluation tools.
	mod.appendLog(Entry{
		Index:     mod.index,
		Uops:      uops,
		MemTx:     memTx,
		Cycles:    cycles,
		MemPerUop: s.MemPerUop,
		UPC:       s.UPC,
		Actual:    actual,
		Predicted: next,
		Setting:   ranAt,
	})
	mod.index++

	// Flip the phase marker so the DAQ can attribute the next interval.
	m.Port().Toggle(machine.PortBitPhase)

	// Clear the interrupt, reinitialize and restart the counters.
	if err := b.Arm(SlotUops, mod.cfg.GranularityUops); err != nil {
		// Unreachable with a validated granularity; fail safe by
		// leaving the counters stopped.
		return mod.cfg.BaseHandlerCostS
	}
	if err := b.Write(SlotMem, 0); err != nil {
		return mod.cfg.BaseHandlerCostS
	}
	b.WriteTSC(0)
	mod.lastTSC = 0
	b.Start()

	cost := mod.handlerCost()
	if cost > mod.cfg.BudgetS {
		mod.budgetViolations++
	}
	if tel := mod.cfg.Telemetry; tel != nil {
		tel.RecordPMISample(mod.index-1, s.MemPerUop, s.UPC)
		tel.HandlerCost.Observe(cost)
		if cost > mod.cfg.BudgetS {
			tel.BudgetViolations.Inc()
		}
	}
	return cost
}

// handlerCost models the handler's execution time: a fixed base plus a
// per-entry associative search charge for table-based predictors.
func (mod *Module) handlerCost() float64 {
	cost := mod.cfg.BaseHandlerCostS
	type sized interface{ TableEntries() int }
	if s, ok := mod.cfg.Monitor.Predictor().(sized); ok {
		cost += float64(s.TableEntries()) * mod.cfg.PerEntrySearchCostS
	}
	return cost
}

// HandlerCostS exposes the modeled per-invocation cost.
func (mod *Module) HandlerCostS() float64 { return mod.handlerCost() }

// BudgetViolations counts handler invocations that exceeded the
// interrupt time budget.
func (mod *Module) BudgetViolations() int { return mod.budgetViolations }

// Samples returns how many intervals the module has logged.
func (mod *Module) Samples() int { return mod.index }

// ReadLog returns a copy of the kernel log, oldest first — the
// system-call interface the paper's user-level tool uses. An empty log
// reads as nil rather than a freshly allocated empty slice.
func (mod *Module) ReadLog() []Entry {
	if len(mod.log) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(mod.log))
	out = append(out, mod.log[mod.logStart:]...)
	out = append(out, mod.log[:mod.logStart]...)
	return out
}

// DrainLog hands the kernel log to the caller without copying: the
// module's backing array is rotated in place to oldest-first order,
// detached, and returned; the module starts a fresh (empty) log. This
// is the post-run path for owners that discard the module afterwards —
// the governor reads the log exactly once into its Result, so the
// system-call copy ReadLog models would be pure garbage. Use ReadLog
// when the module keeps running.
func (mod *Module) DrainLog() []Entry {
	out := mod.log
	if mod.logStart > 0 {
		rotateLeft(out, mod.logStart)
	}
	mod.log = nil
	mod.logStart = 0
	if len(out) == 0 {
		return nil
	}
	return out
}

// rotateLeft rotates s left by k in place (three reversals).
func rotateLeft(s []Entry, k int) {
	reverse(s[:k])
	reverse(s[k:])
	reverse(s)
}

func reverse(s []Entry) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Reconfigure swaps the phase-to-DVFS translation table — the paper's
// post-deployment reconfiguration path (Section 6.3). A nil table
// disables management.
func (mod *Module) Reconfigure(tr *dvfs.Translation) {
	mod.cfg.Translation = tr
}

func (mod *Module) appendLog(e Entry) {
	if len(mod.log) < mod.cfg.LogCapacity {
		mod.log = append(mod.log, e)
		return
	}
	mod.log[mod.logStart] = e
	mod.logStart = (mod.logStart + 1) % len(mod.log)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ToTrace converts kernel-log entries into the trace package's record
// form for export and analysis. The ladder supplies per-setting
// frequencies so interval durations can be reconstructed from cycles.
func ToTrace(entries []Entry, ladder *dvfs.Ladder) *trace.Log {
	log := trace.NewLogWithCap(len(entries))
	var t float64
	for _, e := range entries {
		var freq, dur float64
		if ladder != nil && ladder.ValidSetting(e.Setting) {
			freq = ladder.Point(e.Setting).FrequencyHz
			if freq > 0 {
				dur = float64(e.Cycles) / freq
			}
		}
		log.Append(trace.Record{
			Index:           e.Index,
			StartS:          t,
			DurS:            dur,
			Uops:            float64(e.Uops),
			MemTransactions: float64(e.MemTx),
			Cycles:          float64(e.Cycles),
			MemPerUop:       e.MemPerUop,
			UPC:             e.UPC,
			Actual:          e.Actual,
			Predicted:       e.Predicted,
			Setting:         int(e.Setting),
			FreqHz:          freq,
		})
		t += dur
	}
	return log
}
