package coord

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"b2b/internal/pagestate"
	"b2b/internal/tuple"
	"b2b/internal/wire"
)

// TestUpdateOverwriteEquivalence: coordinating an update and overwriting
// with the state it produces must yield the same HashState — the paged
// Merkle root is a pure function of content, not of how the content was
// reached. The update is sized to straddle a page boundary, the case where
// an incremental root rebind could plausibly diverge from a flat rebuild.
func TestUpdateOverwriteEquivalence(t *testing.T) {
	// Initial state ends 10 bytes before a page boundary; the 50-byte
	// append crosses it.
	initial := make([]byte, 2*pagestate.DefaultPageSize-10)
	for i := range initial {
		initial[i] = byte(i * 13)
	}
	update := bytes.Repeat([]byte("u"), 50)
	expected := append(append([]byte(nil), initial...), update...)

	c := newCluster(t, []string{"alice", "bob"}, initial)
	ctx, cancel := ctxTO(5 * time.Second)
	defer cancel()

	out, err := c.node("alice").engine.ProposeUpdate(ctx, update)
	if err != nil {
		t.Fatalf("ProposeUpdate: %v", err)
	}
	if !out.Valid {
		t.Fatalf("outcome invalid: %+v", out)
	}
	if err := c.waitAgreed(expected, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alice", "bob"} {
		agreed, state := c.node(id).engine.Agreed()
		if !bytes.Equal(state, expected) {
			t.Fatalf("%s: state diverged", id)
		}
		// The update-built identity equals the overwrite identity of the
		// same content, flat-hashed from scratch...
		if want := pagestate.Root(expected, pagestate.DefaultPageSize); agreed.HashState != want {
			t.Fatalf("%s: update-built HashState differs from flat rebuild", id)
		}
		// ... and what an overwrite proposal of the same bytes would bind.
		if ov := tuple.NewState(agreed.Seq+1, []byte("r"), expected); ov.HashState != agreed.HashState {
			t.Fatalf("%s: overwrite tuple binds a different HashState", id)
		}
	}

	// Because the identities coincide, overwriting with the identical
	// content is detectably the null transition of §4.4.
	_, err = c.node("alice").engine.Propose(ctx, expected)
	if err == nil || !errors.Is(err, ErrVetoed) {
		t.Fatalf("identical overwrite after update: err = %v, want veto (null transition)", err)
	}
}

// TestSigMemoSkipsCommitReverification: the recipient's own signed respond
// reappears inside every commit's aggregated evidence; the verified-
// signature memo must absorb those verifications instead of redoing the
// ed25519 work.
func TestSigMemoSkipsCommitReverification(t *testing.T) {
	const runs = 8
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"))
	ctx, cancel := ctxTO(10 * time.Second)
	defer cancel()

	for i := 0; i < runs; i++ {
		out, err := c.node("alice").engine.Propose(ctx, []byte{byte(i + 1)})
		if err != nil || !out.Valid {
			t.Fatalf("run %d: out=%+v err=%v", i, out, err)
		}
	}
	if err := c.waitAgreed([]byte{runs}, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	st := c.node("bob").engine.Stats()
	if st.RunsCommitted != runs {
		t.Fatalf("bob committed %d runs, want %d", st.RunsCommitted, runs)
	}
	// Every commit bob handled embeds exactly one respond — his own, seeded
	// into the memo at signing time. All of them must be memo hits.
	if st.SigMemoHits < runs {
		t.Fatalf("bob's memo hits = %d, want >= %d (one own-respond per commit)", st.SigMemoHits, runs)
	}
	// The propose per run still verifies for real (first sight).
	if st.SigVerifies < runs {
		t.Fatalf("bob's real verifies = %d, want >= %d", st.SigVerifies, runs)
	}
}

// flatPatch is a flat-only Validator (no PagedValidator) for fixed-size
// states whose updates are "[u32 BE offset][body]" patches. ValidateUpdate
// looks at the base: it vetoes a body starting with "veto" and one the base
// already holds at that offset, so a validator that sees a base with the
// patch applied decides differently. scribble makes ApplyUpdate patch its
// current argument in place and return it, which the engine must tolerate.
type flatPatch struct {
	scribble bool

	mu        sync.Mutex
	installed [][]byte
}

func decodePatch(update []byte, size int) (int, []byte, error) {
	if len(update) < 4 {
		return 0, nil, errors.New("short patch")
	}
	off := int(binary.BigEndian.Uint32(update))
	if off+len(update)-4 > size {
		return 0, nil, errors.New("patch out of bounds")
	}
	return off, update[4:], nil
}

func (v *flatPatch) ValidateState(string, []byte, []byte) wire.Decision { return wire.Accepted }

func (v *flatPatch) ValidateUpdate(_ string, current, update []byte) wire.Decision {
	off, body, err := decodePatch(update, len(current))
	if err != nil {
		return wire.Rejected(err.Error())
	}
	if bytes.HasPrefix(body, []byte("veto")) {
		return wire.Rejected("vetoed patch")
	}
	if bytes.Equal(current[off:off+len(body)], body) {
		return wire.Rejected("patch already present in base")
	}
	return wire.Accepted
}

func (v *flatPatch) ApplyUpdate(current, update []byte) ([]byte, error) {
	off, body, err := decodePatch(update, len(current))
	if err != nil {
		return nil, err
	}
	out := current
	if !v.scribble {
		out = append([]byte(nil), current...)
	}
	copy(out[off:], body)
	return out, nil
}

func (v *flatPatch) Installed(state []byte, _ tuple.State) {
	v.mu.Lock()
	v.installed = append(v.installed, append([]byte(nil), state...))
	v.mu.Unlock()
}

func (v *flatPatch) RolledBack([]byte, tuple.State) {}

func patchUpdate(off int, body string) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(off))
	return append(out, body...)
}

// withValidators gives each party the validator mk returns for its id.
func withValidators(mk func(id string) Validator) clusterOpt {
	return func(c *Config) { c.Validator = mk(c.Ident.ID()) }
}

// TestFlatShimToleratesScribblingValidator: the flat shim hands one copy of
// the base to both ApplyUpdate and ValidateUpdate. A validator whose
// ApplyUpdate writes into that copy must still be validated against the
// unmodified base, so its decisions and installed states equal an honest
// validator's.
func TestFlatShimToleratesScribblingValidator(t *testing.T) {
	ids := []string{"alice", "bob", "carol"}
	initial := make([]byte, 3*pagestate.DefaultPageSize+100)
	for i := range initial {
		initial[i] = byte(i * 7)
	}
	updates := [][]byte{
		patchUpdate(10, "first"),
		patchUpdate(pagestate.DefaultPageSize-3, "straddles a page boundary"),
		patchUpdate(500, "veto this one"),
		patchUpdate(len(initial)-4, "tail"),
	}
	type result struct {
		valid     []bool
		decisions []map[string]wire.Decision
		agreed    map[string][]byte
		installed map[string][][]byte
	}
	run := func(scribble bool) result {
		vals := map[string]*flatPatch{}
		c := newCluster(t, ids, initial, withValidators(func(id string) Validator {
			vals[id] = &flatPatch{scribble: scribble}
			return vals[id]
		}))
		ctx, cancel := ctxTO(10 * time.Second)
		defer cancel()
		var r result
		for i, u := range updates {
			out, err := c.node("alice").engine.ProposeUpdate(ctx, u)
			if err != nil && !errors.Is(err, ErrVetoed) {
				t.Fatalf("scribble=%t update %d: %v", scribble, i, err)
			}
			r.valid = append(r.valid, out.Valid)
			r.decisions = append(r.decisions, out.Decisions)
		}
		r.agreed = map[string][]byte{}
		r.installed = map[string][][]byte{}
		for _, id := range ids {
			if err := c.node(id).engine.WaitQuiescent(ctx); err != nil {
				t.Fatal(err)
			}
			_, r.agreed[id] = c.node(id).engine.Agreed()
			vals[id].mu.Lock()
			r.installed[id] = vals[id].installed
			vals[id].mu.Unlock()
		}
		return r
	}
	honest, scribbler := run(false), run(true)
	if want := []bool{true, true, false, true}; !reflect.DeepEqual(honest.valid, want) {
		t.Fatalf("honest outcomes %v, want %v (decisions %v)", honest.valid, want, honest.decisions)
	}
	if !reflect.DeepEqual(honest.valid, scribbler.valid) || !reflect.DeepEqual(honest.decisions, scribbler.decisions) {
		t.Fatalf("decisions differ:\nhonest    %v %v\nscribbler %v %v",
			honest.valid, honest.decisions, scribbler.valid, scribbler.decisions)
	}
	if !reflect.DeepEqual(honest.agreed, scribbler.agreed) {
		t.Fatal("agreed states differ between honest and scribbling validators")
	}
	if !reflect.DeepEqual(honest.installed, scribbler.installed) {
		t.Fatal("installed states differ between honest and scribbling validators")
	}
	for _, id := range ids[1:] {
		if len(honest.installed[id]) != 3 {
			t.Fatalf("%s saw %d installs, want 3", id, len(honest.installed[id]))
		}
	}
}

// blockedInstall holds the install upcall until release is closed.
type blockedInstall struct {
	*appValidator
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *blockedInstall) Installed(state []byte, t tuple.State) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	b.appValidator.Installed(state, t)
}

// TestWaitQuiescentWaitsForInstall: a recipient's commit leaves the
// answered-run set before its install upcall runs. WaitQuiescent (and the
// controller's Settle on top of it) must not return until the upcall has,
// or a caller could act on a replica that does not hold the agreed state.
func TestWaitQuiescentWaitsForInstall(t *testing.T) {
	blk := &blockedInstall{appValidator: &appValidator{}, entered: make(chan struct{}), release: make(chan struct{})}
	c := newCluster(t, []string{"alice", "bob"}, []byte("v0"), withValidators(func(id string) Validator {
		if id == "bob" {
			return blk
		}
		return &appValidator{}
	}))
	defer func() {
		select {
		case <-blk.release:
		default:
			close(blk.release)
		}
	}()
	ctx, cancel := ctxTO(10 * time.Second)
	defer cancel()
	if out, err := c.node("alice").engine.Propose(ctx, []byte("v1")); err != nil || !out.Valid {
		t.Fatalf("Propose: out=%+v err=%v", out, err)
	}
	select {
	case <-blk.entered:
	case <-ctx.Done():
		t.Fatal("bob's install upcall never ran")
	}
	short, cancelShort := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancelShort()
	if err := c.node("bob").engine.WaitQuiescent(short); !errors.Is(err, ErrBlocked) {
		t.Fatalf("WaitQuiescent during the install upcall = %v, want ErrBlocked", err)
	}
	done := make(chan error, 1)
	go func() { done <- c.node("bob").engine.WaitQuiescent(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("WaitQuiescent returned %v before the install upcall was released", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(blk.release)
	if err := <-done; err != nil {
		t.Fatalf("WaitQuiescent after release: %v", err)
	}
	if installs, _ := blk.counts(); installs != 1 {
		t.Fatalf("bob installed %d times, want 1", installs)
	}
}
