package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	b2b "b2b"
	"b2b/internal/transport"
)

// spec is one workload's fixed shape. The exported fields are recorded in
// WORKLOADS.json; the smoke test keeps the two in step. Each object has
// its own client at org00.
type spec struct {
	Name        string `json:"name"`
	Parties     int    `json:"parties"`
	Objects     int    `json:"objects"`
	ObjectBytes int    `json:"object_bytes"`
	PatchBytes  int    `json:"patch_bytes"`
	Mode        string `json:"mode"`
	Window      int    `json:"pipeline_window"`

	build func(w *world) error
}

var specs = []*spec{
	{
		Name: "fanout8", Parties: 8, Objects: 2, ObjectBytes: 1 << 10, PatchBytes: 64,
		Mode: "overwrite/synchronous", Window: 1,
		build: buildFanout8,
	},
	{
		Name: "update4-wal", Parties: 4, Objects: 1, ObjectBytes: 64 << 10, PatchBytes: 64,
		Mode: "update/synchronous", Window: 1,
		build: buildUpdate4WAL,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// recorder collects one phase's outcomes from every client goroutine.
type recorder struct {
	mu        sync.Mutex
	commitMs  []float64 // Enter→outcome of successful commits
	attempted int
	failed    int
	errs      []string

	leaveUs []float64

	marks []mark // rate-window boundaries
}

// mark is one rate-window boundary: the rate metrics are medians over the
// windows between consecutive marks, so a burst of host contention moves
// them by one window's worth instead of by its whole duration.
type mark struct {
	wall    time.Time
	cpu     time.Duration
	commits int
	steal   int64 // host CPU ticks stolen by the hypervisor so far
}

func (r *recorder) mark() {
	m := mark{wall: time.Now(), cpu: processCPU(), steal: readHostCPU().steal}
	r.mu.Lock()
	m.commits = len(r.commitMs)
	r.marks = append(r.marks, m)
	r.mu.Unlock()
}

// quietSteal is the most a window may have stolen, in clock ticks
// (1/100 s) over all CPUs, to count as quiet: 1% of a 2-CPU host's time.
const quietSteal = 2

// windows holds, per kept window, its commits per second, CPU milliseconds
// per commit (windows with commits), and p50 and p90 commit latency
// (windows with at least two commits).
type windows struct {
	perSec, cpuMs, p50Ms, p90Ms []float64
	kept, total                 int
}

// windowStats measures the windows of at least minWall between consecutive
// marks that ran while the hypervisor left the CPUs alone. Stolen time is
// the host's neighbours at work, not the program: a window with more than
// quietSteal ticks stolen ran slower for a reason no change to the program
// can move. It keeps every quiet window, and when those are fewer than a
// third of the windows, tops them up with the least-stolen others to a
// third, so a run on a busy host is still read off enough windows.
func (r *recorder) windowStats(minWall time.Duration) windows {
	type win struct{ a, b mark }
	var all []win
	for i := 1; i < len(r.marks); i++ {
		if a, b := r.marks[i-1], r.marks[i]; b.wall.Sub(a.wall) >= minWall {
			all = append(all, win{a, b})
		}
	}
	byQuiet := append([]win(nil), all...)
	sort.SliceStable(byQuiet, func(i, j int) bool {
		return byQuiet[i].b.steal-byQuiet[i].a.steal < byQuiet[j].b.steal-byQuiet[j].a.steal
	})
	var ws windows
	ws.total = len(all)
	for i, w := range byQuiet {
		if w.b.steal-w.a.steal > quietSteal && 3*i >= len(all) {
			break
		}
		ws.kept++
		n := w.b.commits - w.a.commits
		ws.perSec = append(ws.perSec, float64(n)/w.b.wall.Sub(w.a.wall).Seconds())
		if n > 0 {
			ws.cpuMs = append(ws.cpuMs, float64(w.b.cpu-w.a.cpu)/1e6/float64(n))
		}
		if n > 1 {
			lat := r.commitMs[w.a.commits:w.b.commits]
			ws.p50Ms = append(ws.p50Ms, quantile(lat, 0.50))
			ws.p90Ms = append(ws.p90Ms, quantile(lat, 0.90))
		}
	}
	return ws
}

func (r *recorder) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *recorder) commit(lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.fail(err)
		return
	}
	r.commitMs = append(r.commitMs, float64(lat)/1e6)
}

func (r *recorder) leave(us float64) {
	r.mu.Lock()
	r.leaveUs = append(r.leaveUs, us)
	r.mu.Unlock()
}

// ---- fanout8: 8 parties, batched in-memory transport, 2 clients ----

func buildFanout8(w *world) error {
	w.mem = b2b.NewMemoryNetwork(w.seed)
	for _, p := range w.parties {
		c, err := w.mem.Endpoint(p.id, b2b.BatchedDelivery(0, 0))
		if err != nil {
			return err
		}
		p.rel = c.(*transport.Reliable)
		if p.p, err = b2b.NewParticipant(p.ident, w.td, w.conn(p.rel), b2b.WithPeerCertificates(w.certs()...)); err != nil {
			return err
		}
	}
	return w.bindAll()
}

// drive runs one closed-loop client per object at org00, each changing its
// own object in Synchronous mode until the deadline.
func drive(w *world, until time.Time, rec *recorder) {
	var wg sync.WaitGroup
	for k := 0; k < w.spec.Objects; k++ {
		obj := fmt.Sprintf("obj%d", k)
		gen := w.gen(k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				w.syncCommit(w.parties[0], obj, gen, rec)
			}
		}()
	}
	wg.Wait()
}

// gen returns client k's patch generator; its stream continues across the
// phases of a run, so warm-up and timed phases propose different patches.
func (w *world) gen(k int) *patchGen {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gens == nil {
		w.gens = map[int]*patchGen{}
	}
	g := w.gens[k]
	if g == nil {
		g = newPatchGen(w.seed, uint64(100+k), w.spec.ObjectBytes, w.spec.PatchBytes)
		w.gens[k] = g
	}
	return g
}

// syncCommit makes one change to obj at p and waits for its outcome
// (Synchronous mode: Leave returns it).
func (w *world) syncCommit(p *party, obj string, gen *patchGen, rec *recorder) {
	ctrl, o := p.ctrls[obj], p.objs[obj]
	off, data := gen.next()
	patch := encodePatch(off, data)
	next, err := applyPatch(w.model(obj), patch)
	if err != nil {
		rec.commit(0, err)
		return
	}
	traced := w.tr.active()
	var rootStart int64
	if traced {
		rootStart = w.tr.now()
	}
	start := time.Now()
	ctrl.Enter()
	if w.spec.Mode == "overwrite/synchronous" {
		ctrl.Overwrite()
		o.stageState(append([]byte(nil), next...))
	} else {
		ctrl.Update()
		o.stagePatch(patch)
	}
	leaveStart := time.Now()
	done := w.tr.timed("b2b.leave", obj)
	err = ctrl.Leave()
	done()
	end := time.Now()
	rec.leave(float64(end.Sub(leaveStart)) / 1e3)
	if traced {
		w.tr.add(span{name: "commit", key: obj, start: rootStart, end: w.tr.now()})
	}
	rec.commit(end.Sub(start), err)
	if err == nil {
		w.setModel(obj, next)
	}
}

// ---- update4-wal: 4 parties, durable storage, 64 B updates of 64 KiB ----

func buildUpdate4WAL(w *world) error {
	w.mem = b2b.NewMemoryNetwork(w.seed)
	for _, p := range w.parties {
		c, err := w.mem.Endpoint(p.id)
		if err != nil {
			return err
		}
		p.rel = c.(*transport.Reliable)
		if p.p, err = b2b.NewParticipant(p.ident, w.td, w.conn(p.rel),
			b2b.WithPeerCertificates(w.certs()...),
			b2b.WithFileStorage(w.dir),
			b2b.WithMajorityTermination(),
			b2b.WithResponseDeadline(10*time.Millisecond),
			b2b.WithRetryInterval(5*time.Millisecond),
		); err != nil {
			return err
		}
	}
	return w.bindAll()
}
