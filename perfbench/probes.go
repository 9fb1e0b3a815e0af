package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"b2b/internal/crypto"
	"b2b/internal/pagestate"
	"b2b/internal/store"
	"b2b/internal/wire"
)

// probes are unit costs of single layers, timed through their public
// functions at the workload's message and object sizes. Next to the traced
// run's per-commit counts they let count × unit cost be compared with the
// traced self time.
type probes struct {
	signUs          float64 // wire.Sign of one proposal
	verifyUs        float64 // wire.Signed.Verify of one proposal
	commitMarshalUs float64 // marshal + unmarshal of a commit with n−1 responds
	rootMs          float64 // pagestate.FromBytes at the object size
	barrierUs       float64 // store.Plane AppendDeferred + Barrier of one proposal
}

// timeOp returns the median over 5 batches of the mean time of one call,
// with batches of n calls.
func timeOp(n int, op func()) time.Duration {
	var per []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return time.Duration(quantile(per, 0.5))
}

// proposalBody is the canonical body a proposer signs for one change of
// the workload: the whole new state for overwrites, the patch for updates.
func proposalBody(s *spec) []byte {
	p := wire.Propose{RunID: "probe-run", Proposer: "org00", Object: "obj0"}
	if s.Mode == "overwrite/synchronous" {
		p.Mode, p.NewState = wire.ModeOverwrite, make([]byte, s.ObjectBytes)
	} else {
		p.Mode, p.Update = wire.ModeUpdate, make([]byte, 8+s.PatchBytes)
	}
	return p.Marshal()
}

func measureProbes(w *world, workdir string) (probes, error) {
	var pr probes
	ident := w.parties[0].ident
	vfr := crypto.NewVerifier(w.td.CA, w.td.TSA)
	if err := vfr.AddCertificate(ident.Certificate()); err != nil {
		return pr, err
	}
	body := proposalBody(w.spec)

	var signed wire.Signed
	pr.signUs = us(timeOp(50, func() { signed = wire.Sign(wire.KindPropose, body, ident, w.td.TSA) }))
	var verr error
	pr.verifyUs = us(timeOp(50, func() { verr = signed.Verify(vfr) }))
	if verr != nil {
		return pr, fmt.Errorf("probe verify: %w", verr)
	}

	resp := wire.Sign(wire.KindRespond, wire.Respond{RunID: "probe-run", Responder: "org01", Object: "obj0", Decision: wire.Accepted}.Marshal(), ident, w.td.TSA)
	commit := wire.Commit{RunID: "probe-run", Proposer: "org00", Object: "obj0", Auth: make([]byte, 32), Propose: signed}
	for i := 1; i < w.spec.Parties; i++ {
		commit.Responds = append(commit.Responds, resp)
	}
	var merr error
	pr.commitMarshalUs = us(timeOp(50, func() { _, merr = wire.UnmarshalCommit(commit.Marshal()) }))
	if merr != nil {
		return pr, fmt.Errorf("probe commit unmarshal: %w", merr)
	}

	state := initialState(w.seed, 0, w.spec.ObjectBytes)
	pageSize := pagestate.Policy{}.WithDefaults().PageSize
	reps := max(1, (4<<20)/w.spec.ObjectBytes) // about 4 MiB hashed per batch
	pr.rootMs = float64(timeOp(reps, func() { pagestate.FromBytes(state, pageSize) })) / 1e6

	dir := filepath.Join(workdir, "probe-plane")
	defer os.RemoveAll(dir)
	pl, err := store.OpenPlane(dir, store.Policy{}, nil)
	if err != nil {
		return pr, err
	}
	if err := pl.Start(); err != nil {
		_ = pl.Close()
		return pr, err
	}
	var perr error
	pr.barrierUs = us(timeOp(20, func() {
		if err := pl.AppendDeferred(store.RecRunSave, body); err != nil {
			perr = err
		}
		if err := pl.Barrier(); err != nil {
			perr = err
		}
	}))
	if err := pl.Close(); err != nil && perr == nil {
		perr = err
	}
	return pr, perr
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
