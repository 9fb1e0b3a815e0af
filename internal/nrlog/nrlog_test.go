package nrlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"b2b/internal/clock"
)

func simClock() *clock.Sim {
	return clock.NewSim(time.Date(2002, 6, 23, 0, 0, 0, 0, time.UTC))
}

func TestMemoryAppendAndChain(t *testing.T) {
	l := NewMemory(simClock())
	for i := 0; i < 5; i++ {
		if _, err := l.Append("run-1", "order", "propose", "alice", DirSent, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	entries, err := l.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].PrevHash != entries[i-1].Hash {
			t.Fatalf("chain broken at %d", i)
		}
	}
}

func TestMemoryByRun(t *testing.T) {
	l := NewMemory(simClock())
	_, _ = l.Append("run-1", "order", "propose", "alice", DirSent, []byte("a"))
	_, _ = l.Append("run-2", "order", "propose", "alice", DirSent, []byte("b"))
	_, _ = l.Append("run-1", "order", "respond", "bob", DirReceived, []byte("c"))

	got, err := l.ByRun("run-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ByRun = %d entries", len(got))
	}
	if got[0].Kind != "propose" || got[1].Kind != "respond" {
		t.Fatal("wrong entries selected")
	}
}

func TestTamperDetectionPayload(t *testing.T) {
	l := NewMemory(simClock())
	_, _ = l.Append("r", "o", "k", "p", DirSent, []byte("honest evidence"))
	_, _ = l.Append("r", "o", "k", "p", DirSent, []byte("more evidence"))
	l.entries[0].Payload = []byte("rewritten history")
	if err := l.Verify(); err == nil {
		t.Fatal("payload tampering not detected")
	}
}

func TestTamperDetectionReorder(t *testing.T) {
	l := NewMemory(simClock())
	_, _ = l.Append("r", "o", "k1", "p", DirSent, []byte("first"))
	_, _ = l.Append("r", "o", "k2", "p", DirSent, []byte("second"))
	l.entries[0], l.entries[1] = l.entries[1], l.entries[0]
	if err := l.Verify(); err == nil {
		t.Fatal("reordering not detected")
	}
}

func TestTamperDetectionTruncationMidLog(t *testing.T) {
	l := NewMemory(simClock())
	for i := 0; i < 4; i++ {
		_, _ = l.Append("r", "o", "k", "p", DirSent, []byte{byte(i)})
	}
	// Removing a middle entry breaks the chain.
	l.entries = append(l.entries[:1], l.entries[2:]...)
	if err := l.Verify(); err == nil {
		t.Fatal("mid-log deletion not detected")
	}
}

func TestFileRoundTripAndRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "evidence", "alice.log")
	clk := simClock()

	l, err := OpenFile(path, clk)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("propose run-1"), []byte("respond run-1"), []byte("commit run-1")}
	for i, p := range payloads {
		kind := []string{"propose", "respond", "commit"}[i]
		if _, err := l.Append("run-1", "order", kind, "alice", DirSent, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open: the chain must verify and all entries survive.
	l2, err := OpenFile(path, clk)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	defer func() { _ = l2.Close() }()
	entries, err := l2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("recovered %d entries", len(entries))
	}
	for i, p := range payloads {
		if !bytes.Equal(entries[i].Payload, p) {
			t.Fatalf("entry %d payload mismatch", i)
		}
	}
	// Appending after recovery keeps the chain intact.
	if _, err := l2.Append("run-2", "order", "propose", "alice", DirSent, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFileDetectsOnDiskTampering(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	clk := simClock()
	l, err := OpenFile(path, clk)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = l.Append("r", "o", "k", "p", DirSent, []byte("evidence-AAAA"))
	_, _ = l.Append("r", "o", "k", "p", DirSent, []byte("evidence-BBBB"))
	_ = l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var fe fileEntry
	if err := json.Unmarshal(lines[0], &fe); err != nil {
		t.Fatal(err)
	}
	fe.Kind = "forged-kind"
	forged, _ := json.Marshal(fe)
	lines[0] = forged
	if err := os.WriteFile(path, append(bytes.Join(lines, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenFile(path, clk); err == nil {
		t.Fatal("tampered log opened without error")
	}
}

func TestFileDetectsTruncationOfTail(t *testing.T) {
	// Removing the final line is undetectable by chain alone at open time
	// (the chain prefix is valid) — but removing an interior line is caught.
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log")
	clk := simClock()
	l, err := OpenFile(path, clk)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, _ = l.Append("r", "o", "k", "p", DirSent, []byte{byte(i)})
	}
	_ = l.Close()

	raw, _ := os.ReadFile(path)
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	interior := append(append([][]byte{}, lines[0]), lines[2]) // drop middle
	if err := os.WriteFile(path, append(bytes.Join(interior, []byte("\n")), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, clk); err == nil {
		t.Fatal("interior deletion not detected")
	}
}

func TestEmptyPayloadAllowed(t *testing.T) {
	l := NewMemory(simClock())
	if _, err := l.Append("r", "o", "k", "p", DirLocal, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// Property: a log built from any sequence of appends verifies, and flipping
// any single payload byte breaks verification.
func TestChainProperty(t *testing.T) {
	f := func(payloads [][]byte, tamperIdx uint, tamperByte uint) bool {
		if len(payloads) == 0 {
			return true
		}
		l := NewMemory(simClock())
		for _, p := range payloads {
			if _, err := l.Append("r", "o", "k", "p", DirSent, p); err != nil {
				return false
			}
		}
		if l.Verify() != nil {
			return false
		}
		i := int(tamperIdx % uint(len(payloads)))
		if len(l.entries[i].Payload) == 0 {
			return true
		}
		j := int(tamperByte % uint(len(l.entries[i].Payload)))
		l.entries[i].Payload[j] ^= 0x01
		return l.Verify() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendSeqChainsEvidencePerSequence(t *testing.T) {
	l := NewMemory(simClock())
	if _, err := l.AppendSeq("run-a", 1, "obj", "propose", "p", DirSent, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSeq("run-b", 2, "obj", "propose", "p", DirSent, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("run-c", "obj", "verdict", "p", DirLocal, []byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("chain with RunSeq entries fails verification: %v", err)
	}
	got, err := BySeq(l, "obj", 2)
	if err != nil || len(got) != 1 || got[0].RunID != "run-b" {
		t.Fatalf("BySeq = %+v (%v)", got, err)
	}
	// Tampering with the sequence tag breaks the chain.
	l.entries[1].RunSeq = 7
	if err := l.Verify(); err == nil {
		t.Fatal("RunSeq tamper went undetected")
	}
}

func TestFileLogRunSeqSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seq.log")
	l, err := OpenFile(path, simClock())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSeq("run-a", 3, "obj", "commit", "p", DirSent, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFile(path, simClock())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	got, err := BySeq(l2, "obj", 3)
	if err != nil || len(got) != 1 || got[0].RunID != "run-a" {
		t.Fatalf("BySeq after reopen = %+v (%v)", got, err)
	}
}
