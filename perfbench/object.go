package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
)

// blob is the benchmark's shared object: a fixed-size byte array that
// clients change either by proposing a whole new state (Overwrite) or by
// proposing a patch (Update). A patch is an 8-byte big-endian offset
// followed by the bytes written there.
//
// The replica (what the engine installed) and the staged change (what the
// local client is about to propose) are kept apart: an install of run k
// that lands after the client staged run k+1 must not clobber the staged
// change. GetState/GetUpdate consume the staged change.
type blob struct {
	size int
	tr   *tracer // nil: untraced
	key  string  // object name, for span attribution

	mu      sync.Mutex
	replica []byte
	staged  []byte // whole new state (Overwrite)
	patch   []byte // encoded patch (Update)
}

func newBlob(key string, initial []byte, tr *tracer) *blob {
	return &blob{size: len(initial), tr: tr, key: key, replica: append([]byte(nil), initial...)}
}

// stageState queues a whole-state proposal for the next Leave.
func (o *blob) stageState(state []byte) {
	o.mu.Lock()
	o.staged = state
	o.mu.Unlock()
}

// stagePatch queues an update-mode proposal for the next Leave.
func (o *blob) stagePatch(patch []byte) {
	o.mu.Lock()
	o.patch = patch
	o.mu.Unlock()
}

// Replica returns a copy of the installed state.
func (o *blob) Replica() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]byte(nil), o.replica...)
}

func (o *blob) GetState() ([]byte, error) {
	defer o.tr.timed("app.getstate", o.key)()
	o.mu.Lock()
	defer o.mu.Unlock()
	if s := o.staged; s != nil {
		o.staged = nil
		return s, nil
	}
	return append([]byte(nil), o.replica...), nil
}

func (o *blob) ApplyState(state []byte) error {
	defer o.tr.timed("app.apply", o.key)()
	if len(state) != o.size {
		return fmt.Errorf("blob: state is %d bytes, want %d", len(state), o.size)
	}
	o.mu.Lock()
	o.replica = append(o.replica[:0], state...)
	o.mu.Unlock()
	return nil
}

func (o *blob) ValidateState(_ string, state []byte) error {
	defer o.tr.timed("app.validate", o.key)()
	if len(state) != o.size {
		return fmt.Errorf("blob: proposed state is %d bytes, want %d", len(state), o.size)
	}
	return nil
}

func (o *blob) ValidateConnect(string) error { return nil }

func (o *blob) ValidateDisconnect(string, bool) error { return nil }

func (o *blob) GetUpdate() ([]byte, error) {
	defer o.tr.timed("app.getstate", o.key)()
	o.mu.Lock()
	defer o.mu.Unlock()
	p := o.patch
	o.patch = nil
	if p == nil {
		return nil, errors.New("blob: no staged patch")
	}
	return p, nil
}

func (o *blob) ApplyUpdate(current, update []byte) ([]byte, error) {
	defer o.tr.timed("app.apply", o.key)()
	return applyPatch(current, update)
}

func (o *blob) ValidateUpdate(_ string, current, update []byte) error {
	defer o.tr.timed("app.validate", o.key)()
	_, _, err := decodePatch(len(current), update)
	return err
}

func encodePatch(off int, data []byte) []byte {
	p := make([]byte, 8+len(data))
	binary.BigEndian.PutUint64(p, uint64(off))
	copy(p[8:], data)
	return p
}

func decodePatch(size int, p []byte) (off int, data []byte, err error) {
	if len(p) < 8 {
		return 0, nil, errors.New("blob: short patch")
	}
	o := binary.BigEndian.Uint64(p)
	data = p[8:]
	if o > uint64(size) || uint64(len(data)) > uint64(size)-o {
		return 0, nil, fmt.Errorf("blob: patch [%d,+%d) outside %d-byte state", o, len(data), size)
	}
	return int(o), data, nil
}

// applyPatch returns a new state: current with the patch written in. The
// public UpdatableObject contract hands over the whole state, so this copy
// is O(object size) per run.
func applyPatch(current, patch []byte) ([]byte, error) {
	off, data, err := decodePatch(len(current), patch)
	if err != nil {
		return nil, err
	}
	next := append([]byte(nil), current...)
	copy(next[off:], data)
	return next, nil
}

// patchGen draws seed-determined patches: a uniform offset and random
// contents of a fixed length.
type patchGen struct {
	rng  *rand.Rand
	size int
	n    int
}

func newPatchGen(seed uint64, stream uint64, size, n int) *patchGen {
	return &patchGen{rng: rand.New(rand.NewPCG(seed, stream)), size: size, n: n}
}

func (g *patchGen) next() (off int, data []byte) {
	off = g.rng.IntN(g.size - g.n + 1)
	data = make([]byte, g.n)
	for i := range data {
		data[i] = byte(g.rng.Uint32())
	}
	return off, data
}

// initialState is the seed-determined genesis content of an object.
func initialState(seed uint64, stream uint64, size int) []byte {
	rng := rand.New(rand.NewPCG(seed^0x5eed, stream))
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}
