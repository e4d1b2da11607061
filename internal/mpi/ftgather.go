package mpi

import "repro/internal/fault"

// This file is the failure-aware counterpart of Gatherv and Reduce: the
// inverse leg of the pipeline FaultTolerantScatterv starts, run by the
// same supervisor (ftscatter.go). The root pulls each rank's
// contribution over its single inbound port in rank order, retrying
// timed-out transfers under the same policy, and tracks confirmed
// contributions in a fault.Ledger keyed by one-slot ranges — slot
// [r, r+1) confirmed means rank r's contribution is held at the current
// root. A pull waits until the contributor is ready as well as the
// port. The gather hands the supervisor the world's network plan, so
// its pulls are slowed by degraded trunks and lost across cuts, and its
// elections skip candidates cut off from the survivors, as in the
// scatter. It passes no divergence detector: the detector only steers
// the scatter's rebalances, and a gather has nothing to rebalance. The
// ledger's metadata piggybacks on each acknowledgement, so when the
// collecting root crashes the survivors elect a successor exactly as in
// the scatter. The partial gather dies with the old root, so the
// successor reclaims every confirmed slot and re-collects from the
// surviving contributors — idempotently: a contribution is re-sent
// verbatim and lands exactly once in the new root's buffer, never
// duplicated. Contributors that died before any surviving root
// confirmed them are reported in Missing; the caller decides whether to
// recompute their share (see internal/chaos).

// GatherReport describes how a fault-tolerant gather or reduce went.
// Its Ledger holds slot [r, r+1) for every contribution the final root
// holds.
type GatherReport struct {
	Supervision
	// Contributed lists the ranks whose contributions the final root
	// holds, in rank order; Missing lists the ranks whose contributions
	// were lost with their machines.
	Contributed, Missing []int
}

// FaultTolerantGatherv collects every rank's contribution at the root
// like Gatherv, but supervises every pull against the world's fault
// plan: timed-out transfers are retried with capped exponential
// backoff, contributors that crash or exhaust their retries are
// declared dead and reported in Missing, and a crash of the collecting
// root triggers a re-election after which the successor re-collects
// the surviving contributions exactly once. The final root receives
// the held contributions concatenated in rank order; other surviving
// ranks receive nil; ranks declared dead receive an error wrapping
// ErrRankFailed.
func FaultTolerantGatherv[T any](c *Comm, contrib []T) ([]T, *GatherReport, error) {
	out, err := c.rendezvous(contrib, func(w *World, clocks []float64, inputs []any) ([]float64, []float64, []any, error) {
		p := w.Size()
		origRoot := w.rootRank
		s := newSupervisor(w, clocks, false, nil)
		ledger := s.ledger
		confirm := func(r int, at float64) {
			ledger.Deliver(r, fault.Range{Lo: r, Hi: r + 1}, at)
		}

		for round := 1; ; round++ {
			s.rep.Rounds = round
			verb := "recv"
			if round > 1 || s.root != origRoot {
				verb = "regather"
			}
			rootLost := false
			for r := 0; r < p && !rootLost; r++ {
				if r == s.root || !s.alive[r] || ledger.Held(r) > 0 {
					continue
				}
				rootLost = s.transfer(r, len(inputs[r].([]T)), s.lastEnd[r], verb+"←"+w.procs[r].Name, confirm)
			}
			if rootLost, _ = s.endRound(rootLost, ledger.Held(s.root) == 0, confirm); rootLost {
				survivors := s.living()
				if len(survivors) == 0 {
					break
				}
				// The partial gather died with the old root: reclaim
				// every confirmed slot (the replicas survive — they are
				// what the election reads) and re-collect. A dead
				// contributor's slot is gone for good.
				for _, r := range ledger.Holders() {
					ledger.Reclaim(r, s.t)
				}
				s.failover(survivors)
				continue
			}
			// No failover: done once every living contributor is banked.
			pending := false
			for _, r := range s.living() {
				pending = pending || ledger.Held(r) == 0
			}
			if !pending {
				break
			}
		}

		rep := GatherReport{Supervision: s.rep}
		allLost := len(s.living()) == 0
		var gathered []T
		for r := 0; r < p; r++ {
			if ledger.Held(r) > 0 && !allLost {
				rep.Contributed = append(rep.Contributed, r)
				gathered = append(gathered, inputs[r].([]T)...)
			} else {
				rep.Missing = append(rep.Missing, r)
			}
		}
		return outcomes(s, rep, func(r int) []T {
			if r == s.root {
				return gathered
			}
			return nil
		})
	})
	if err != nil {
		return nil, nil, err
	}
	o := out.(ftOut[T, GatherReport])
	rep := o.rep
	if err := o.join(c, &rep.Supervision); err != nil {
		return nil, &rep, err
	}
	return o.payload, &rep, nil
}

// FaultTolerantReduce folds every rank's value at the root with op,
// with the same supervision, retry, and root-failover machinery as
// FaultTolerantGatherv. Only the surviving contributions listed in the
// report are folded, in rank order; the caller inspects Missing to
// decide whether the partial reduction is acceptable. The final root
// receives the folded value; other surviving ranks receive 0.
func FaultTolerantReduce(c *Comm, value float64, op ReduceOp) (float64, *GatherReport, error) {
	vals, rep, err := FaultTolerantGatherv(c, []float64{value})
	if err != nil || len(vals) == 0 {
		return 0, rep, err
	}
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = op(acc, v)
	}
	return acc, rep, nil
}
