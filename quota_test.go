package b2b_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	b2b "b2b"
	"b2b/internal/transport"
)

// TestQuotasRefuseOversizedGroup: with WithQuotas, a group whose agreed
// state has grown past its resident-page cap is refused further local
// coordination with the typed quota error, while under-cap runs proceed.
func TestQuotasRefuseOversizedGroup(t *testing.T) {
	d := newDeployment(t, []string{"alpha", "beta"},
		b2b.WithQuotas(b2b.QuotaPolicy{MaxResidentPages: 1}))

	// First change: admitted (the agreed state is still one page when the
	// scope closes) and grows the document past 4 KiB — more than one
	// resident page once committed.
	ctrl := d.ctrls["alpha"]
	ctrl.Enter()
	d.docs["alpha"].Set("bulk", strings.Repeat("x", 8<<10))
	ctrl.Overwrite()
	if err := ctrl.Leave(); err != nil {
		t.Fatalf("under-cap Leave: %v", err)
	}

	// Second change: the group now holds >1 resident page, so admission
	// control refuses with the typed error before any proposal is sent.
	ctrl.Enter()
	d.docs["alpha"].Set("more", "y")
	ctrl.Overwrite()
	err := ctrl.Leave()
	if !errors.Is(err, b2b.ErrQuotaExceeded) {
		t.Fatalf("over-cap Leave = %v, want ErrQuotaExceeded", err)
	}

	u, err := d.parts["alpha"].GroupUsage("document")
	if err != nil {
		t.Fatal(err)
	}
	if !u.Materialized || u.ResidentPages <= 1 {
		t.Fatalf("GroupUsage = %+v, want materialized with >1 resident pages", u)
	}
}

// TestRuntimeStatsAndMetrics: the public snapshot surfaces agree with each
// other — RuntimeStats, the unified metrics snapshot, and the text dump.
func TestRuntimeStatsAndMetrics(t *testing.T) {
	d := newDeployment(t, []string{"alpha", "beta"})
	ctrl := d.ctrls["alpha"]
	ctrl.Enter()
	d.docs["alpha"].Set("k", "v")
	ctrl.Overwrite()
	if err := ctrl.Leave(); err != nil {
		t.Fatal(err)
	}
	d.waitDoc(t, "beta", "k", "v", 5*time.Second)

	rs := d.parts["alpha"].RuntimeStats()
	if rs.Workers == 0 {
		t.Fatal("scheduler reports zero workers")
	}
	if rs.Bound != 1 || rs.Materialized != 1 {
		t.Fatalf("RuntimeStats bound=%d materialized=%d, want 1/1", rs.Bound, rs.Materialized)
	}
	if rs.Handled == 0 {
		t.Fatal("a committed run handled no inbound messages")
	}

	snap := d.parts["alpha"].MetricsSnapshot()
	if snap["runtime.bound"] != 1 {
		t.Fatalf("metrics runtime.bound = %d, want 1", snap["runtime.bound"])
	}
	if snap["coord.runs_proposed"] < 1 {
		t.Fatalf("metrics coord.runs_proposed = %d, want >= 1", snap["coord.runs_proposed"])
	}
	if int64(rs.Handled) != snap["runtime.handled"] {
		t.Fatalf("RuntimeStats.Handled=%d disagrees with metrics runtime.handled=%d",
			rs.Handled, snap["runtime.handled"])
	}

	var sb strings.Builder
	if err := d.parts["alpha"].DumpMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	for _, want := range []string{"coord.runs_proposed ", "runtime.workers ", "storage.disk_bytes ", "xfer.sessions_served "} {
		if !strings.Contains(dump, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, dump)
		}
	}
	lines := strings.Split(strings.TrimSuffix(dump, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("dump not sorted: %q before %q", lines[i-1], lines[i])
		}
	}
}

// TestTransportRetransmitMetrics: a participant on a reliable connection
// publishes the reliable layer's retransmission and duplicate counters. On
// a lossy network both move, and every duplicate a party suppressed was
// resent by some party.
func TestTransportRetransmitMetrics(t *testing.T) {
	d := newDeployment(t, []string{"alpha", "beta"})
	d.net.Underlying().SetDefaultFaults(transport.Faults{DropProb: 0.3})
	ctrl := d.ctrls["alpha"]
	for i := 0; i < 8; i++ {
		ctrl.Enter()
		d.docs["alpha"].Set("k", fmt.Sprint(i))
		ctrl.Overwrite()
		if err := ctrl.Leave(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	d.waitDoc(t, "beta", "k", "7", 10*time.Second)

	var retransmits, duplicates int64
	for _, id := range []string{"alpha", "beta"} {
		snap := d.parts[id].MetricsSnapshot()
		for _, name := range []string{"transport.retransmits", "transport.duplicates"} {
			if _, ok := snap[name]; !ok {
				t.Fatalf("%s: metrics snapshot has no %s", id, name)
			}
		}
		retransmits += snap["transport.retransmits"]
		duplicates += snap["transport.duplicates"]
	}
	if retransmits == 0 || duplicates == 0 {
		t.Fatalf("on a 30%% lossy network: retransmits=%d duplicates=%d, want both > 0", retransmits, duplicates)
	}
	if duplicates > retransmits {
		t.Fatalf("%d duplicates suppressed but only %d frames resent", duplicates, retransmits)
	}
}
