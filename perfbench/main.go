// Command perfbench is the repository's end-to-end benchmark. It drives the
// public b2b API (trust domain, participants, controllers) from one
// process through a closed loop of at most two clients, on one of two
// workloads (see WORKLOADS.json), checks that every party converged to the
// client's model and that every evidence log verifies, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Untraced runs (-trace 0) report the end-to-end metrics. A traced run
// (-trace 1) runs its first third untraced and the rest with spans recorded
// around every call the benchmark makes into a layer, and reports the
// per-layer metrics, self times, layer probes and the tracing overhead.
//
//	go run . -workload fanout8 -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// Fixed by run; the smoke test shortens them.
	setups     int           // set-ups per run; setup_s is their median
	warmup     time.Duration // untimed drive before the timed phase
	minCommits int           // fewest commits a valid run collects
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "fanout8", "workload: fanout8 or update4-wal")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for genesis states, patch offsets and contents")
	fs.Float64Var(&o.seconds, "seconds", 45, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for WAL and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	o.setups, o.warmup, o.minCommits = 25, time.Second, 1000
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// rateWindow is the length of the windows the rate metrics are medians
// over; a window shorter than minWindow (the tail end of a phase) is left
// out.
const (
	rateWindow = time.Second
	minWindow  = rateWindow / 4
)

// phase is one timed drive of the workload between two samples.
type phase struct {
	rec          *recorder
	before, post sample
	spans        []span
}

func (p *phase) wall() float64 { return p.post.wall.Sub(p.before.wall).Seconds() }

func (p *phase) delta(name string) float64 {
	return float64(p.post.registry[name] - p.before.registry[name])
}

// drivePhase samples, drives the workload for the given seconds, and
// samples again; the costly per-party readings bracket the timed interval.
// A phase slowed so much that it has fewer than minCommits commits keeps
// going, up to twice its length, so its tail is never read off too few
// samples.
func drivePhase(w *world, seconds float64, minCommits int, detailed bool) *phase {
	ph := &phase{rec: &recorder{}}
	var pre sample
	if detailed {
		pre.registry, pre.dgrams, pre.entries = w.registry(), w.dgrams(), w.logEntries()
	}
	var spansBefore int
	if w.tr != nil {
		spansBefore = len(w.tr.snapshot())
	}
	ph.before = readSample()
	ph.before.registry, ph.before.dgrams, ph.before.entries = pre.registry, pre.dgrams, pre.entries
	ph.rec.mark()
	quit := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(rateWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				ph.rec.mark()
			case <-quit:
				return
			}
		}
	}()
	length := time.Duration(seconds * float64(time.Second))
	drive(w, ph.before.wall.Add(length), ph.rec)
	for len(ph.rec.commitMs) < minCommits && time.Since(ph.before.wall) < 2*length {
		drive(w, time.Now().Add(rateWindow), ph.rec)
	}
	close(quit)
	sampler.Wait()
	ph.rec.mark()
	ph.post = readSample()
	if detailed {
		ph.post.registry, ph.post.dgrams, ph.post.entries = w.registry(), w.dgrams(), w.logEntries()
	}
	if w.tr != nil {
		ph.spans = w.tr.snapshot()[spansBefore:]
	}
	return ph
}

func bench(o options, stdout io.Writer) (*result, error) {
	s := specByName(o.workload)
	if s == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}

	// Set-up, several times; the last world is kept.
	var w *world
	var setupS []float64
	for i := 0; i < o.setups; i++ {
		dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", s.Name, o.seed, i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var tr *tracer
		if o.trace {
			tr = newTracer()
		}
		runtime.GC() // the last world's garbage is not this set-up's cost
		start := time.Now()
		nw, err := newWorld(s, o.seed, dir, tr)
		if err == nil {
			err = s.build(nw)
		}
		took := time.Since(start)
		if err != nil {
			if nw != nil {
				_ = nw.close()
			}
			return nil, fmt.Errorf("%s set-up: %w", s.Name, err)
		}
		setupS = append(setupS, took.Seconds())
		if i < o.setups-1 {
			if err := nw.close(); err != nil {
				return nil, fmt.Errorf("%s tear-down: %w", s.Name, err)
			}
			continue
		}
		w = nw
	}
	defer w.close()

	warm := &recorder{}
	drive(w, time.Now().Add(o.warmup), warm)

	// A traced run drives its first third untraced, for the tracing
	// overhead.
	res := &result{Metrics: map[string]metric{}}
	var phases []*phase
	if !o.trace {
		phases = append(phases, drivePhase(w, o.seconds, o.minCommits, false))
	} else {
		phases = append(phases, drivePhase(w, o.seconds/3, 0, true))
		w.tr.on.Store(true)
		phases = append(phases, drivePhase(w, o.seconds-o.seconds/3, 0, true))
		w.tr.on.Store(false)
	}

	checks, fails, verifyMs := w.check(30 * time.Second)
	last := phases[len(phases)-1]
	if n := len(last.rec.commitMs); !o.trace && n < o.minCommits {
		fails = append(fails, fmt.Errorf("only %d commits in the timed phase; the p99 needs at least %d", n, o.minCommits))
	}
	res.Correct = len(fails) == 0
	res.Attempted, res.Failed = checks, len(fails)
	for _, ph := range append([]*phase{{rec: warm}}, phases...) {
		res.Attempted += ph.rec.attempted
		res.Failed += ph.rec.failed
	}

	if !o.trace {
		endToEnd(res, last, setupS)
	} else {
		pr, err := measureProbes(w, o.workdir)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		perLayer(res, phases[0], last, pr, verifyMs)
		path := filepath.Join(o.workdir, "trace-"+s.Name+".csv")
		if err := writeSpans(path, last.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(last.spans), path)
	}

	commits := 0
	for _, ph := range phases {
		commits += len(ph.rec.commitMs)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d commits, %d checks, %d attempted, %d failed\n",
		s.Name, o.seed, commits, checks, res.Attempted, res.Failed)
	for i, ph := range phases {
		ws := ph.rec.windowStats(minWindow)
		fmt.Fprintf(stdout, "phase %d: %.1f s, %d commits, pooled p99 %.2f ms; %d of %d windows kept, commits/s min %.1f median %.1f max %.1f; host steal %.2f s, iowait %.2f s\n",
			i, ph.wall(), len(ph.rec.commitMs), quantile(ph.rec.commitMs, 0.99),
			ws.kept, ws.total, quantile(ws.perSec, 0), quantile(ws.perSec, 0.5), quantile(ws.perSec, 1),
			float64(ph.post.host.steal-ph.before.host.steal)/100, float64(ph.post.host.iowait-ph.before.host.iowait)/100)
	}
	for _, ph := range append([]*phase{{rec: warm}}, phases...) {
		for _, e := range ph.rec.errs {
			fmt.Fprintln(stdout, "failure:", e)
		}
	}
	for _, err := range fails {
		fmt.Fprintln(stdout, "check failed:", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	return res, nil
}

// endToEnd fills the metrics a user of the system sees, from an untraced
// phase. Each is the median over the phase's quiet 1 s windows (see
// windowStats) of the window's figure, so a burst of host contention moves
// one window instead of the run's figure. The gated tail is the p90: a p99
// moved with host steal by more than any bound allows. The pooled p99 is
// reported by the traced run.
func endToEnd(res *result, ph *phase, setupS []float64) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: finite(v), Unit: unit} }
	ws := ph.rec.windowStats(minWindow)
	set("setup_s", "s", quantile(setupS, 0.5))
	set("commit_p50_ms", "ms", quantile(ws.p50Ms, 0.5))
	set("commit_p90_ms", "ms", quantile(ws.p90Ms, 0.5))
	set("commits_per_s", "1/s", quantile(ws.perSec, 0.5))
	set("cpu_ms_per_commit", "ms", quantile(ws.cpuMs, 0.5))
}

// perLayer fills the traced run's per-layer metrics from its traced phase
// (and the untraced first third, for the tracing overhead).
func perLayer(res *result, untraced, ph *phase, pr probes, verifyMs []float64) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: finite(v), Unit: unit} }
	rec := ph.rec
	n := float64(len(rec.commitMs))
	per := func(v float64) float64 { return v / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var sendUs, handlerUs []float64
	var sends, sendBytes float64
	appUs := map[string]float64{}
	appCalls := 0
	for _, s := range ph.spans {
		d := float64(s.end-s.start) / 1e3
		switch {
		case s.name == "transport.send":
			sends++
			sendBytes += float64(s.bytes)
			sendUs = append(sendUs, d)
		case s.name == "transport.handler":
			handlerUs = append(handlerUs, d)
		case strings.HasPrefix(s.name, "app."):
			appUs[s.name] += d
			appCalls++
		}
	}
	self := selfTimes(ph.spans)
	dgrams := float64(ph.post.dgrams - ph.before.dgrams)

	set("b2b.leave_us", "us", quantile(rec.leaveUs, 0.5))

	set("transport.sends_per_commit", "count", per(sends))
	set("transport.send_kib_per_commit", "KiB", per(sendBytes/1024))
	set("transport.send_us_p50", "us", quantile(sendUs, 0.5))
	set("transport.handler_us_p50", "us", quantile(handlerUs, 0.5))
	set("transport.dgrams_per_commit", "count", per(dgrams))
	set("transport.dgrams_per_send", "ratio", ratio(dgrams, sends))

	verifies, memo := ph.delta("coord.sig_verifies"), ph.delta("coord.sig_memo_hits")
	set("crypto.verifies_per_commit", "count", per(verifies))
	set("crypto.memo_hit_ratio", "ratio", ratio(memo, memo+verifies))
	set("crypto.verify_us", "us", pr.verifyUs)
	set("crypto.sign_us", "us", pr.signUs)
	set("crypto.verify_ms_per_commit", "ms", per(verifies)*pr.verifyUs/1e3)

	set("wire.commit_marshal_us", "us", pr.commitMarshalUs)

	set("coord.valid_ratio", "ratio", ratio(ph.delta("coord.runs_valid"), ph.delta("coord.runs_proposed")))
	set("coord.committed_per_commit", "count", per(ph.delta("coord.runs_committed")))

	set("core.handled_per_commit", "count", per(ph.delta("runtime.handled")))
	set("core.parked", "count", ph.delta("runtime.parked"))
	set("core.shed", "count", ph.delta("runtime.shed"))

	set("app.validate_us_per_commit", "us", per(appUs["app.validate"]))
	set("app.apply_us_per_commit", "us", per(appUs["app.apply"]))
	set("app.getstate_us_per_commit", "us", per(appUs["app.getstate"]))
	set("app.calls_per_commit", "count", per(float64(appCalls)))

	set("pagestate.root_ms", "ms", pr.rootMs)

	set("store.disk_kib_per_commit", "KiB", per(ph.delta("storage.disk_bytes")/1024))
	set("store.wchar_kib_per_commit", "KiB", per(float64(ph.post.wchar-ph.before.wchar)/1024))
	set("store.write_syscalls_per_commit", "count", per(float64(ph.post.syscw-ph.before.syscw)))
	set("store.barrier_us", "us", pr.barrierUs)

	set("nrlog.entries_per_commit", "count", per(float64(ph.post.entries-ph.before.entries)))
	set("nrlog.verify_ms", "ms", quantile(verifyMs, 0.5))

	set("go.alloc_kib_per_commit", "KiB", per(float64(ph.post.alloc-ph.before.alloc)/1024))
	set("go.gc_per_1k_commits", "count", per(float64(ph.post.numGC-ph.before.numGC))*1000)
	set("go.gc_cpu_frac", "ratio", ratio(ph.post.gcCPU-ph.before.gcCPU, ph.post.totalCPU-ph.before.totalCPU))
	set("go.peak_rss_mib", "MiB", peakRSSMiB())

	for _, layer := range []string{"root", "b2b", "transport", "app"} {
		set("self."+layer+"_ms_per_commit", "ms", per(float64(self[layer])/1e6))
	}

	// Median window rates, so a burst of host contention in either part
	// does not read as tracing overhead.
	untracedCPS := quantile(untraced.rec.windowStats(minWindow).perSec, 0.5)
	tracedCPS := quantile(rec.windowStats(minWindow).perSec, 0.5)
	set("trace.untraced_commits_per_s", "1/s", untracedCPS)
	set("trace.traced_commits_per_s", "1/s", tracedCPS)
	set("trace.overhead_frac", "ratio", ratio(untracedCPS-tracedCPS, untracedCPS))
	set("trace.spans_per_commit", "count", per(float64(len(ph.spans))))
	set("commit_samples", "count", n)
	set("commit_p99_ms", "ms", quantile(rec.commitMs, 0.99))
	failed := rec.failed + untraced.rec.failed
	set("failed_frac", "ratio", ratio(float64(failed), float64(rec.attempted+untraced.rec.attempted)))
}

// finite maps the NaN of an empty sample set to 0, which JSON can carry.
func finite(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
