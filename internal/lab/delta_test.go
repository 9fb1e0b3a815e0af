package lab

import (
	"context"
	"fmt"
	"testing"
	"time"

	"b2b/internal/pagestate"
)

// TestFlatValidatorUpdateHashesDelta is the O(delta) gate for validators
// that only speak flat bytes (every b2b.UpdatableObject): each 64-byte patch
// of a 1 MiB object may rehash at most four pages per party, summed over the
// proposer and the recipient. The engine materializes flat copies for such a
// validator, but it re-pages the result against the base it came from, so
// untouched pages are compared, never rehashed.
func TestFlatValidatorUpdateHashesDelta(t *testing.T) {
	const size, runs, parties = 1 << 20, 32, 2
	w, err := NewFlatPatchWorld(Options{Seed: 14}, "obj", size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	en := w.Party("org00").Engine("obj")
	peer := w.Party("org01").Engine("obj")
	budget := uint64(4 * en.PageSize() * parties)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < runs; i++ {
		before, _ := pagestate.Stats()
		upd := Patch((i*4099)%(size-64), []byte(fmt.Sprintf("upd-%08d-%048d", i, i)))
		out, err := en.ProposeUpdate(ctx, upd)
		if err != nil || !out.Valid {
			t.Fatalf("run %d: out=%+v err=%v", i, out, err)
		}
		if err := peer.WaitQuiescent(ctx); err != nil {
			t.Fatal(err)
		}
		after, _ := pagestate.Stats()
		if hashed := after - before; hashed > budget {
			t.Fatalf("run %d hashed %d bytes, budget %d (4 pages x %d B x %d parties)",
				i, hashed, budget, en.PageSize(), parties)
		}
	}
	a, sa := en.Agreed()
	b, sb := peer.Agreed()
	if a != b || string(sa) != string(sb) {
		t.Fatal("replicas diverged")
	}
}
