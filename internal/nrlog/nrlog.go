// Package nrlog implements the non-repudiation evidence log: every protocol
// message a party generates or receives is stored systematically in a local,
// persistent, tamper-evident log (paper §3, §4.2). Entries are hash-chained
// so that truncation or in-place modification of the record is detectable,
// and indexed by protocol run so the evidence for a disputed run can be
// handed to extra-protocol arbitration.
package nrlog

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"b2b/internal/crypto"
)

// Direction records whether the evidence was generated locally or received.
type Direction string

// Entry directions.
const (
	DirSent     Direction = "sent"
	DirReceived Direction = "received"
	DirLocal    Direction = "local" // local decisions, checkpoints, verdicts
)

// Entry is one evidence record. Hash covers (Seq, RunSeq, PrevHash, Time,
// RunID, Object, Kind, Party, Direction, Payload); PrevHash chains entries.
// RunSeq is the proposal sequence number of the coordination run the
// evidence belongs to (zero when not applicable), so the evidence of a
// pipelined burst is chained per sequence: the records of run k and of its
// successors k+1, k+2, ... are attributable to their exact position in the
// pipeline when a disputed suffix rollback goes to arbitration.
type Entry struct {
	Seq       uint64
	RunSeq    uint64
	PrevHash  [32]byte
	Hash      [32]byte
	Time      time.Time
	RunID     string
	Object    string
	Kind      string
	Party     string
	Direction Direction
	Payload   []byte
}

// entryHash is the per-version hash layout of the evidence chain. Like the
// wire encoding (docs/PROTOCOL.md §7) it carries no version tag: a log
// written under a different field layout fails verification on open rather
// than being silently misread, and migrating historical evidence across
// layouts is an explicit operator action, not something the log does
// implicitly.
func entryHash(e *Entry) [32]byte {
	meta := fmt.Sprintf("%d|%d|%s|%s|%s|%s|%s|%d",
		e.Seq, e.RunSeq, e.RunID, e.Object, e.Kind, e.Party, e.Direction, e.Time.UTC().UnixNano())
	return crypto.Hash(e.PrevHash[:], []byte(meta), e.Payload)
}

// Errors reported by logs.
var (
	ErrChainBroken = errors.New("nrlog: hash chain broken")
	ErrBadEntry    = errors.New("nrlog: entry hash mismatch")
)

// Log is an append-only evidence store.
type Log interface {
	// Append records evidence and returns the stored entry. It is AppendSeq
	// with RunSeq zero.
	Append(runID, object, kind, party string, dir Direction, payload []byte) (Entry, error)
	// AppendSeq records evidence tagged with the coordination run's proposal
	// sequence number, so the record of a pipelined burst is indexed per
	// sequence (see Entry.RunSeq).
	AppendSeq(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte) (Entry, error)
	// Entries returns all entries in order.
	Entries() ([]Entry, error)
	// ByRun returns the entries belonging to one protocol run.
	ByRun(runID string) ([]Entry, error)
	// Verify re-checks the hash chain over the whole log.
	Verify() error
	// Len reports the number of entries.
	Len() int
}

// BySeq filters entries down to one object's runs at one proposal sequence.
func BySeq(l Log, object string, runSeq uint64) ([]Entry, error) {
	all, err := l.Entries()
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, e := range all {
		if e.Object == object && e.RunSeq == runSeq {
			out = append(out, e)
		}
	}
	return out, nil
}

// Clock supplies entry times (decoupled for deterministic tests).
type Clock interface {
	Now() time.Time
}

// Memory is an in-memory Log. It keeps a per-run index and the cached tail
// hash so Append is O(1) and ByRun is O(matches) regardless of log length.
type Memory struct {
	mu      sync.Mutex
	clk     Clock
	entries []Entry
	byRun   map[string][]int
	tail    [32]byte
}

// NewMemory creates an empty in-memory log.
func NewMemory(clk Clock) *Memory {
	return &Memory{clk: clk, byRun: make(map[string][]int)}
}

// Append implements Log.
func (l *Memory) Append(runID, object, kind, party string, dir Direction, payload []byte) (Entry, error) {
	return l.AppendSeq(runID, 0, object, kind, party, dir, payload)
}

// AppendSeq implements Log.
func (l *Memory) AppendSeq(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte) (Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{
		Seq:       uint64(len(l.entries)),
		RunSeq:    runSeq,
		Time:      l.clk.Now(),
		RunID:     runID,
		Object:    object,
		Kind:      kind,
		Party:     party,
		Direction: dir,
		Payload:   append([]byte(nil), payload...),
	}
	if len(l.entries) > 0 {
		e.PrevHash = l.tail
	}
	e.Hash = entryHash(&e)
	l.byRun[e.RunID] = append(l.byRun[e.RunID], len(l.entries))
	l.entries = append(l.entries, e)
	l.tail = e.Hash
	return e, nil
}

// Entries implements Log.
func (l *Memory) Entries() ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out, nil
}

// ByRun implements Log via the per-run index.
func (l *Memory) ByRun(runID string) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return pickEntries(l.entries, l.byRun[runID]), nil
}

// pickEntries gathers the entries at the indexed positions.
func pickEntries(entries []Entry, idx []int) []Entry {
	out := make([]Entry, 0, len(idx))
	for _, i := range idx {
		out = append(out, entries[i])
	}
	return out
}

// Verify implements Log.
func (l *Memory) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return verifyChain(l.entries)
}

// Len implements Log.
func (l *Memory) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// closeJoin closes c with err already in hand, folding a close-time failure
// in rather than swallowing it (closecheck: close can surface deferred
// write-back errors exactly like fsync).
func closeJoin(err error, c io.Closer) error {
	if cerr := c.Close(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}

func verifyChain(entries []Entry) error {
	var prev [32]byte
	for i := range entries {
		e := &entries[i]
		if e.PrevHash != prev {
			return fmt.Errorf("%w: entry %d", ErrChainBroken, i)
		}
		if entryHash(e) != e.Hash {
			return fmt.Errorf("%w: entry %d", ErrBadEntry, i)
		}
		prev = e.Hash
	}
	return nil
}

// fileEntry is the JSON-lines on-disk form.
type fileEntry struct {
	Seq       uint64    `json:"seq"`
	RunSeq    uint64    `json:"run_seq,omitempty"`
	PrevHash  string    `json:"prev"`
	Hash      string    `json:"hash"`
	Time      time.Time `json:"time"`
	RunID     string    `json:"run"`
	Object    string    `json:"object"`
	Kind      string    `json:"kind"`
	Party     string    `json:"party"`
	Direction Direction `json:"dir"`
	Payload   string    `json:"payload"`
}

func toFileEntry(e Entry) fileEntry {
	return fileEntry{
		Seq:       e.Seq,
		RunSeq:    e.RunSeq,
		PrevHash:  base64.StdEncoding.EncodeToString(e.PrevHash[:]),
		Hash:      base64.StdEncoding.EncodeToString(e.Hash[:]),
		Time:      e.Time,
		RunID:     e.RunID,
		Object:    e.Object,
		Kind:      e.Kind,
		Party:     e.Party,
		Direction: e.Direction,
		Payload:   base64.StdEncoding.EncodeToString(e.Payload),
	}
}

func fromFileEntry(fe fileEntry) (Entry, error) {
	e := Entry{
		Seq:       fe.Seq,
		RunSeq:    fe.RunSeq,
		Time:      fe.Time,
		RunID:     fe.RunID,
		Object:    fe.Object,
		Kind:      fe.Kind,
		Party:     fe.Party,
		Direction: fe.Direction,
	}
	prev, err := base64.StdEncoding.DecodeString(fe.PrevHash)
	if err != nil || len(prev) != 32 {
		return Entry{}, fmt.Errorf("nrlog: bad prev hash: %w", err)
	}
	copy(e.PrevHash[:], prev)
	h, err := base64.StdEncoding.DecodeString(fe.Hash)
	if err != nil || len(h) != 32 {
		return Entry{}, fmt.Errorf("nrlog: bad hash: %w", err)
	}
	copy(e.Hash[:], h)
	if fe.Payload != "" {
		p, err := base64.StdEncoding.DecodeString(fe.Payload)
		if err != nil {
			return Entry{}, fmt.Errorf("nrlog: bad payload: %w", err)
		}
		e.Payload = p
	}
	return e, nil
}

func marshalFileEntry(e Entry) ([]byte, error) {
	line, err := json.Marshal(toFileEntry(e))
	if err != nil {
		return nil, fmt.Errorf("nrlog: encoding entry: %w", err)
	}
	return line, nil
}

// File is a persistent Log stored as JSON lines, one entry per line, synced
// on every append. On open it loads and verifies the existing chain, so a
// party recovering from a crash resumes with intact evidence. Like Memory
// it maintains a per-run index and the cached tail hash, keeping Append
// O(1) and ByRun O(matches) however long the log grows.
type File struct {
	mu      sync.Mutex
	clk     Clock
	path    string
	f       *os.File
	entries []Entry
	byRun   map[string][]int
	tail    [32]byte
}

// OpenFile opens (or creates) the log at path.
func OpenFile(path string, clk Clock) (*File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("nrlog: creating log directory: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("nrlog: opening %s: %w", path, err)
	}
	l := &File{clk: clk, path: path, f: f, byRun: make(map[string][]int)}
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var fe fileEntry
		if err := json.Unmarshal(line, &fe); err != nil {
			return nil, closeJoin(fmt.Errorf("nrlog: corrupt entry in %s: %w", path, err), f)
		}
		e, err := fromFileEntry(fe)
		if err != nil {
			return nil, closeJoin(err, f)
		}
		l.byRun[e.RunID] = append(l.byRun[e.RunID], len(l.entries))
		l.entries = append(l.entries, e)
		l.tail = e.Hash
	}
	if err := scanner.Err(); err != nil {
		return nil, closeJoin(fmt.Errorf("nrlog: reading %s: %w", path, err), f)
	}
	if err := verifyChain(l.entries); err != nil {
		return nil, closeJoin(fmt.Errorf("nrlog: %s failed verification on open: %w", path, err), f)
	}
	if _, err := f.Seek(0, 2); err != nil {
		return nil, closeJoin(fmt.Errorf("nrlog: seeking %s: %w", path, err), f)
	}
	return l, nil
}

// Append implements Log.
func (l *File) Append(runID, object, kind, party string, dir Direction, payload []byte) (Entry, error) {
	return l.AppendSeq(runID, 0, object, kind, party, dir, payload)
}

// AppendSeq implements Log.
func (l *File) AppendSeq(runID string, runSeq uint64, object, kind, party string, dir Direction, payload []byte) (Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{
		Seq:       uint64(len(l.entries)),
		RunSeq:    runSeq,
		Time:      l.clk.Now(),
		RunID:     runID,
		Object:    object,
		Kind:      kind,
		Party:     party,
		Direction: dir,
		Payload:   append([]byte(nil), payload...),
	}
	if len(l.entries) > 0 {
		e.PrevHash = l.tail
	}
	e.Hash = entryHash(&e)

	line, err := marshalFileEntry(e)
	if err != nil {
		return Entry{}, err
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return Entry{}, fmt.Errorf("nrlog: writing entry: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return Entry{}, fmt.Errorf("nrlog: syncing: %w", err)
	}
	l.byRun[e.RunID] = append(l.byRun[e.RunID], len(l.entries))
	l.entries = append(l.entries, e)
	l.tail = e.Hash
	return e, nil
}

// Entries implements Log.
func (l *File) Entries() ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out, nil
}

// ByRun implements Log via the per-run index.
func (l *File) ByRun(runID string) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return pickEntries(l.entries, l.byRun[runID]), nil
}

// Verify implements Log.
func (l *File) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return verifyChain(l.entries)
}

// Len implements Log.
func (l *File) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Close closes the underlying file.
func (l *File) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
