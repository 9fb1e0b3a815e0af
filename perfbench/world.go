package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	b2b "b2b"
	"b2b/internal/core"
	"b2b/internal/crypto"
	"b2b/internal/transport"
)

// party is one organisation of a benchmark world.
type party struct {
	id    string
	ident *crypto.Identity
	p     *b2b.Participant
	rel   *transport.Reliable
	ctrls map[string]*b2b.Controller
	objs  map[string]*blob
}

// world is one workload's deployment: its trust domain, parties and
// network, plus the client models the correctness checks compare against.
type world struct {
	spec *spec
	seed uint64
	dir  string
	tr   *tracer
	td   *b2b.TrustDomain

	mem     *b2b.MemoryNetwork
	parties []*party

	// models[object] is the driving client's view of the agreed state,
	// written only by that object's client goroutine.
	mu     sync.Mutex
	models map[string][]byte
	gens   map[int]*patchGen
}

func (w *world) ids() []string {
	ids := make([]string, len(w.parties))
	for i, p := range w.parties {
		ids[i] = p.id
	}
	return ids
}

func (w *world) model(obj string) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.models[obj]
}

func (w *world) setModel(obj string, m []byte) {
	w.mu.Lock()
	w.models[obj] = m
	w.mu.Unlock()
}

func partyIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("org%02d", i)
	}
	return ids
}

// newWorld builds the trust domain and issues one identity per party.
func newWorld(s *spec, seed uint64, dir string, tr *tracer) (*world, error) {
	td, err := b2b.NewTrustDomain(nil)
	if err != nil {
		return nil, err
	}
	w := &world{spec: s, seed: seed, dir: dir, tr: tr, td: td, models: map[string][]byte{}}
	for _, id := range partyIDs(s.Parties) {
		ident, err := td.Issue(id)
		if err != nil {
			return nil, err
		}
		w.parties = append(w.parties, &party{id: id, ident: ident, ctrls: map[string]*b2b.Controller{}, objs: map[string]*blob{}})
	}
	return w, nil
}

func (w *world) certs() []crypto.Certificate {
	var cs []crypto.Certificate
	for _, p := range w.parties {
		cs = append(cs, p.ident.Certificate())
	}
	return cs
}

// conn returns what the participant is handed: the reliable connection,
// wrapped for timing in a traced run.
func (w *world) conn(rel *transport.Reliable) core.Conn {
	if w.tr != nil {
		return &tracedConn{rel: rel, tr: w.tr}
	}
	return rel
}

// bindAll binds every object of the spec at every party and bootstraps the
// group with the seed-determined genesis state.
func (w *world) bindAll() error {
	for k := 0; k < w.spec.Objects; k++ {
		obj := fmt.Sprintf("obj%d", k)
		genesis := initialState(w.seed, uint64(k), w.spec.ObjectBytes)
		w.models[obj] = genesis
		for _, p := range w.parties {
			o := newBlob(obj, genesis, w.tr)
			ctrl, err := p.p.Bind(obj, o, nil)
			if err != nil {
				return fmt.Errorf("%s: bind %s: %w", p.id, obj, err)
			}
			p.ctrls[obj], p.objs[obj] = ctrl, o
		}
		for _, p := range w.parties {
			if err := p.ctrls[obj].Bootstrap(w.ids()); err != nil {
				return fmt.Errorf("%s: bootstrap %s: %w", p.id, obj, err)
			}
		}
	}
	return nil
}

// close shuts every party down and removes the world's directory.
func (w *world) close() error {
	var errs []error
	for _, p := range w.parties {
		switch {
		case p.p != nil:
			errs = append(errs, p.p.Close())
		case p.rel != nil:
			errs = append(errs, p.rel.Close())
		}
	}
	if w.mem != nil {
		w.mem.Close()
	}
	errs = append(errs, os.RemoveAll(w.dir))
	return errors.Join(errs...)
}

// registry sums every party's metrics snapshot.
func (w *world) registry() map[string]int64 {
	sum := map[string]int64{}
	for _, p := range w.parties {
		for k, v := range p.p.MetricsSnapshot() {
			sum[k] += v
		}
	}
	return sum
}

// dgrams counts datagrams put on the wire so far.
func (w *world) dgrams() int64 {
	return int64(w.mem.Underlying().Stats().Sent)
}

// logEntries counts evidence entries ever appended over all parties. An
// entry's Seq counts the entries before it, including those anchored
// truncation has moved to archives, so the live log's length would not do.
func (w *world) logEntries() int64 {
	var n int64
	for _, p := range w.parties {
		if es, err := p.p.Log().Entries(); err == nil && len(es) > 0 {
			n += int64(es[len(es)-1].Seq) + 1
		}
	}
	return n
}

// converged reports whether every party holds the same agreed sequence
// number for obj and a replica equal to the client's model.
func (w *world) converged(obj string) error {
	model := w.model(obj)
	want := w.parties[0].ctrls[obj].AgreedSeq()
	for _, p := range w.parties {
		if seq := p.ctrls[obj].AgreedSeq(); seq != want {
			return fmt.Errorf("%s: %s agreed seq %d, %s has %d", obj, p.id, seq, w.parties[0].id, want)
		}
		if !bytes.Equal(p.objs[obj].Replica(), model) {
			return fmt.Errorf("%s: %s replica differs from the client's model", obj, p.id)
		}
		if !bytes.Equal(p.ctrls[obj].AgreedState(), model) {
			return fmt.Errorf("%s: %s agreed state differs from the client's model", obj, p.id)
		}
	}
	return nil
}

// check runs the end-of-run correctness checks: every object converged at
// every party to the client's model, and every party's evidence log
// verifies. It returns the number of checks made, the failures, and the
// per-party evidence-log verify times.
func (w *world) check(timeout time.Duration) (checks int, fails []error, verifyMs []float64) {
	deadline := time.Now().Add(timeout)
	objs := make([]string, 0, len(w.models))
	for obj := range w.models {
		objs = append(objs, obj)
	}
	sort.Strings(objs)
	for _, obj := range objs {
		checks++
		// Installs at recipients may trail the proposer's outcome.
		err := w.converged(obj)
		for err != nil && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			err = w.converged(obj)
		}
		if err != nil {
			fails = append(fails, err)
		}
	}
	for _, p := range w.parties {
		checks++
		start := time.Now()
		err := p.p.Log().Verify()
		verifyMs = append(verifyMs, float64(time.Since(start))/1e6)
		if err != nil {
			fails = append(fails, fmt.Errorf("%s: evidence log: %w", p.id, err))
		}
	}
	return checks, fails, verifyMs
}
