package core

// White-box scheduler tests: drive sched directly with stub bindings so the
// dispatch properties (never blocking the caller, per-object serial
// execution, per-sender parking, round-robin fairness, quota shedding,
// drain-on-stop) are checked deterministically, without a network or real
// protocol engines underneath.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"b2b/internal/clock"
	"b2b/internal/nrlog"
	"b2b/internal/wire"
)

func testEnv(object string, n int) wire.Envelope {
	return wire.Envelope{
		MsgID:   "m",
		From:    "peer",
		Object:  object,
		Kind:    wire.KindPropose,
		Payload: []byte{byte(n), byte(n >> 8), byte(n >> 16)},
	}
}

func newTestSched(t *testing.T, q QuotaPolicy) *sched {
	t.Helper()
	s := newSched(nrlog.NewMemory(clock.NewSim(time.Unix(0, 0))), "self", q)
	t.Cleanup(func() {
		s.stop(nil)
		s.wait()
	})
	return s
}

func TestSchedSerialPerObject(t *testing.T) {
	s := newTestSched(t, QuotaPolicy{Workers: 4})
	var inFlight, maxFlight, handled atomic.Int64
	b := &binding{object: "obj"}
	b.handleFn = func(inboundEnv) {
		if n := inFlight.Add(1); n > maxFlight.Load() {
			maxFlight.Store(n)
		}
		time.Sleep(10 * time.Microsecond)
		inFlight.Add(-1)
		handled.Add(1)
	}
	const n = 500
	for i := 0; i < n; i++ {
		s.enqueue(b, "peer", testEnv("obj", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for handled.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := handled.Load(); got != n {
		t.Fatalf("handled %d of %d", got, n)
	}
	if got := maxFlight.Load(); got != 1 {
		t.Fatalf("object handled by %d workers concurrently; serial execution violated", got)
	}
}

func TestSchedEnqueueNeverBlocksAndParksPerSender(t *testing.T) {
	// A binding whose handler is stuck must not block the caller of enqueue
	// (the transport's delivery goroutine): arrivals beyond the soft queue
	// bound wait in per-sender parked queues, and a second binding keeps
	// being served by the remaining workers.
	s := newTestSched(t, QuotaPolicy{Workers: 2})
	release := make(chan struct{})
	stuck := &binding{object: "stuck"}
	var stuckHandled atomic.Int64
	stuck.handleFn = func(inboundEnv) {
		<-release
		stuckHandled.Add(1)
	}
	var liveHandled atomic.Int64
	live := &binding{object: "live"}
	live.handleFn = func(inboundEnv) { liveHandled.Add(1) }

	const flood = softPendingMsgs + 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < flood; i++ {
			s.enqueue(stuck, "flooder", testEnv("stuck", i))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue blocked the delivery path while the object's handler was stuck")
	}

	s.mu.Lock()
	parked := stuck.parkedMsgs
	s.mu.Unlock()
	if parked == 0 {
		t.Fatal("no messages parked despite the queue exceeding the soft bound")
	}

	// The sibling object proceeds while stuck's worker is blocked.
	for i := 0; i < 100; i++ {
		s.enqueue(live, "peer", testEnv("live", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for liveHandled.Load() < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := liveHandled.Load(); got != 100 {
		t.Fatalf("sibling object handled %d of 100 while another object was stuck", got)
	}

	close(release)
	deadline = time.Now().Add(10 * time.Second)
	for stuckHandled.Load() < flood && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := stuckHandled.Load(); got != int64(flood) {
		t.Fatalf("flooded object handled %d of %d after release (parked messages lost?)", got, flood)
	}
}

func TestSchedPerSenderOrderPreserved(t *testing.T) {
	// Messages from one sender must be handled in arrival order even when
	// they cross the direct-queue/parked boundary.
	s := newTestSched(t, QuotaPolicy{Workers: 1})
	release := make(chan struct{})
	var mu sync.Mutex
	var seen []int
	first := true
	b := &binding{object: "obj"}
	b.handleFn = func(m inboundEnv) {
		if first {
			first = false
			<-release // hold the worker so the backlog builds and parks
		}
		mu.Lock()
		seen = append(seen, int(m.env.Payload[0])|int(m.env.Payload[1])<<8|int(m.env.Payload[2])<<16)
		mu.Unlock()
	}
	const n = softPendingMsgs + 200
	for i := 0; i < n; i++ {
		s.enqueue(b, "sender", testEnv("obj", i))
	}
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got := len(seen)
		mu.Unlock()
		if got == n || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("handled %d of %d", len(seen), n)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("message %d handled at position %d: per-sender order violated", v, i)
		}
	}
}

func TestSchedRoundRobinFairness(t *testing.T) {
	// One worker, one saturated binding with a deep backlog, one binding
	// with a short queue: quantum-based re-queueing must interleave them, so
	// the short queue completes long before the deep backlog drains.
	s := newTestSched(t, QuotaPolicy{Workers: 1})
	gate := make(chan struct{})
	var hogHandled, sideHandled atomic.Int64
	var hogWhenSideDone atomic.Int64
	hog := &binding{object: "hog"}
	hog.handleFn = func(inboundEnv) {
		<-gate // hold until both backlogs are enqueued
		hogHandled.Add(1)
	}
	side := &binding{object: "side"}
	const sideN = 100
	side.handleFn = func(inboundEnv) {
		<-gate
		if sideHandled.Add(1) == sideN {
			hogWhenSideDone.Store(hogHandled.Load())
		}
	}
	const hogN = 10000
	for i := 0; i < hogN; i++ {
		s.enqueue(hog, "peer", testEnv("hog", i))
	}
	for i := 0; i < sideN; i++ {
		s.enqueue(side, "peer", testEnv("side", i))
	}
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for sideHandled.Load() < sideN && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sideHandled.Load(); got != sideN {
		t.Fatalf("side object handled %d of %d", got, sideN)
	}
	// Round-robin at batchQuantum: the worker alternates ~32-message quanta,
	// so by side's completion the hog has consumed only a few quanta of its
	// 10k backlog. Generous bound: anything far below hogN proves fairness.
	if hogAt := hogWhenSideDone.Load(); hogAt > hogN/2 {
		t.Fatalf("hog had handled %d of %d when the short queue finished: no interleaving", hogAt, hogN)
	}
}

func TestSchedQuotaShed(t *testing.T) {
	log := nrlog.NewMemory(clock.NewSim(time.Unix(0, 0)))
	s := newSched(log, "self", QuotaPolicy{Workers: 1, MaxPendingBytes: 1})
	defer func() {
		s.stop(nil)
		s.wait()
	}()
	var handled atomic.Int64
	b := &binding{object: "obj"}
	b.handleFn = func(inboundEnv) { handled.Add(1) }
	s.enqueue(b, "peer", testEnv("obj", 0)) // any envelope costs > 1 byte
	s.mu.Lock()
	shedB, shedS := b.shed, s.shed
	s.mu.Unlock()
	if shedB != 1 || shedS != 1 {
		t.Fatalf("shed counters = (%d, %d), want (1, 1)", shedB, shedS)
	}
	if handled.Load() != 0 {
		t.Fatal("over-quota message was handled")
	}
	entries, err := log.Entries()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.Kind == "quota-shed" && e.Object == "obj" {
			found = true
		}
	}
	if !found {
		t.Fatal("shed traffic left no quota-shed evidence entry")
	}
}

func TestSchedStopDrainsEverything(t *testing.T) {
	// Queued and parked messages were acked as seen by the transport before
	// enqueue; stop must hand every one of them to a handler, exactly once.
	s := newSched(nrlog.NewMemory(clock.NewSim(time.Unix(0, 0))), "self", QuotaPolicy{Workers: 2})
	var handled atomic.Int64
	bindings := make([]*binding, 3)
	for i := range bindings {
		b := &binding{object: string(rune('a' + i))}
		b.handleFn = func(inboundEnv) { handled.Add(1) }
		bindings[i] = b
	}
	const perBinding = softPendingMsgs + 300 // force some onto the parked path
	for _, b := range bindings {
		for i := 0; i < perBinding; i++ {
			s.enqueue(b, "peer", testEnv(b.object, i))
		}
	}
	s.stop(bindings)
	s.wait()
	if got, want := handled.Load(), int64(len(bindings)*perBinding); got != want {
		t.Fatalf("drained %d of %d messages at stop", got, want)
	}
}

func TestSessionGateQuotas(t *testing.T) {
	s := newTestSched(t, QuotaPolicy{MaxSessions: 1, MaxTotalSessions: 2})
	a, b, c := &binding{object: "a"}, &binding{object: "b"}, &binding{object: "c"}
	ga := &sessionGate{s: s, b: a}
	gb := &sessionGate{s: s, b: b}
	gc := &sessionGate{s: s, b: c}
	if !ga.TryAcquire() {
		t.Fatal("first per-group slot refused")
	}
	if ga.TryAcquire() {
		t.Fatal("second slot for the same group exceeded MaxSessions")
	}
	if !gb.TryAcquire() {
		t.Fatal("independent group refused below the global cap")
	}
	if gc.TryAcquire() {
		t.Fatal("third concurrent session exceeded MaxTotalSessions")
	}
	ga.Release()
	if !gc.TryAcquire() {
		t.Fatal("slot not reusable after release")
	}
	gb.Release()
	gc.Release()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions != 0 || a.sessions != 0 || b.sessions != 0 || c.sessions != 0 {
		t.Fatalf("session accounting leaked: global=%d a=%d b=%d c=%d",
			s.sessions, a.sessions, b.sessions, c.sessions)
	}
}
