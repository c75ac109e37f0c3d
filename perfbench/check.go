package main

import (
	"bytes"
	"fmt"

	"phasemon/internal/wire"
)

// expect is the reference answer for one streamed sample, computed by
// a local governed run over the same counters (the phasefeed -check
// contract: serving must be bit-identical to simulation).
type expect struct {
	actual, next, class, setting uint8
}

// verifyPrediction reports whether p is the in-order, unshed answer to
// sample seq that the local replay produced.
func verifyPrediction(p *wire.Prediction, seq uint64, want expect) bool {
	return p.Seq == seq && p.Dropped == 0 &&
		p.Actual == want.actual && p.Next == want.next &&
		p.Class == want.class && p.Setting == want.setting
}

// checkConservation is the sample conservation law seen from outside
// the server: every sample the clients sent was either answered or
// shed, and the rollup pipeline ingested each answered or shed sample
// exactly once.
func checkConservation(sent, answered, shed, ingested uint64) error {
	if sent != answered+shed {
		return fmt.Errorf("conservation: sent %d != answered %d + shed %d", sent, answered, shed)
	}
	if ingested != answered+shed {
		return fmt.Errorf("conservation: agg ingested %d != answered %d + shed %d", ingested, answered, shed)
	}
	return nil
}

// checkLeaderboard requires a leaderboard artifact to be byte-identical
// to the single-worker reference.
func checkLeaderboard(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	return fmt.Errorf("leaderboard differs from the Workers=1 reference at byte %d (%d vs %d bytes)", n, len(got), len(want))
}

// serveCounts are a serving run's totals over its whole life, from the
// clients and from the server's own counters after Shutdown.
type serveCounts struct {
	sent, answered, mismatched uint64
	shed, ingested, protoErrs  uint64
	sessions, drained          int
	errs                       []error
}

// verdict turns the totals into the run's failure count and the
// problems that explain it. Failed samples are those shed, mismatched
// or never answered (which covers every sample an errored session left
// in flight); protocol errors, undrained sessions and a broken
// conservation law each count as a failure too.
func (c serveCounts) verdict() (failed uint64, problems []string) {
	failed = c.mismatched + c.shed + c.protoErrs
	if c.sent > c.answered {
		failed += c.sent - c.answered
	}
	if c.mismatched > 0 {
		problems = append(problems, fmt.Sprintf("%d predictions differ from the local replay", c.mismatched))
	}
	if c.shed > 0 {
		problems = append(problems, fmt.Sprintf("%d samples shed", c.shed))
	}
	if c.protoErrs > 0 {
		problems = append(problems, fmt.Sprintf("%d protocol errors", c.protoErrs))
	}
	if err := checkConservation(c.sent, c.answered, c.shed, c.ingested); err != nil {
		failed++
		problems = append(problems, err.Error())
	}
	if c.drained < c.sessions {
		failed += uint64(c.sessions - c.drained)
		problems = append(problems, fmt.Sprintf("%d of %d sessions got no clean server drain", c.sessions-c.drained, c.sessions))
	}
	for _, err := range c.errs {
		problems = append(problems, err.Error())
	}
	return failed, problems
}
