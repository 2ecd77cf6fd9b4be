package trace

import (
	"fmt"
	"strings"
	"time"

	"github.com/spilly-db/spilly/internal/metrics"
)

// Profile is the EXPLAIN ANALYZE view of one executed query: the operator
// tree with per-operator time (self time, i.e. excluding children,
// normalized by the worker count so the per-operator times sum to roughly
// the query's wall duration), row flow, and spill activity.
type Profile struct {
	// Total is the query's measured wall duration.
	Total time.Duration
	// Workers is the worker count spans were normalized against.
	Workers int
	// Query holds the query's total counters, including the query-level
	// ones no span carries (heap-allocation and collector deltas, the memory
	// budget's high-water mark). Filled in by the engine. AllocApprox marks
	// the allocation figures approximate: another query overlapped this one,
	// and the process-wide counters mix in its allocations too.
	Query       metrics.Snapshot
	AllocApprox bool
	// AdmissionWait is the time spent queued for a memory grant before
	// execution; MemoryGrant the grant admitted with (0 = unlimited).
	// Filled in by the engine.
	AdmissionWait time.Duration
	MemoryGrant   int64
	// Roots are the top-level operators (normally one: the plan root).
	Roots []*ProfileNode
}

// ProfileNode is one operator in the profile tree.
type ProfileNode struct {
	SpanSnapshot
	// Self is the operator's own wall-clock share: its exclusive summed
	// worker-time divided by the worker count. The Self values of a
	// profile sum to ~Total.
	Self time.Duration
	// Inclusive is Self plus all descendants'.
	Inclusive time.Duration
	Children  []*ProfileNode
}

// MarshalJSON renders the node as its span's flat object plus its own
// members; without it the embedded span's method is promoted and drops them.
func (n ProfileNode) MarshalJSON() ([]byte, error) {
	type span SpanSnapshot // drops the promoted method, keeps the tags
	return n.Snapshot.MarshalWith(struct {
		span
		Self      time.Duration  `json:"self_ns"`
		Inclusive time.Duration  `json:"inclusive_ns"`
		Children  []*ProfileNode `json:"children,omitempty"`
	}{span(n.SpanSnapshot), n.Self, n.Inclusive, n.Children}, true)
}

// Profile assembles the span tree and computes self times. total is the
// query's measured wall duration (the normalization target).
func (t *Tracer) Profile(total time.Duration) *Profile {
	if t == nil {
		return nil
	}
	snaps := t.Snapshots()
	p := &Profile{Total: total, Workers: t.Workers()}
	nodes := make([]*ProfileNode, len(snaps))
	for i := range snaps {
		nodes[i] = &ProfileNode{SpanSnapshot: snaps[i]}
	}
	for _, n := range nodes {
		if n.ParentID >= 0 && n.ParentID < len(nodes) {
			nodes[n.ParentID].Children = append(nodes[n.ParentID].Children, n)
		} else {
			p.Roots = append(p.Roots, n)
		}
	}
	w := time.Duration(p.Workers)
	var compute func(n *ProfileNode)
	compute = func(n *ProfileNode) {
		n.Self = n.Busy / w
		n.Inclusive = n.Self
		for _, c := range n.Children {
			compute(c)
			n.Inclusive += c.Inclusive
		}
	}
	for _, r := range p.Roots {
		compute(r)
	}
	return p
}

// SelfSum returns the sum of per-operator self times — the quantity that
// should land within a few percent of Total when workers stay busy.
func (p *Profile) SelfSum() time.Duration {
	var sum time.Duration
	var walk func(n *ProfileNode)
	walk = func(n *ProfileNode) {
		sum += n.Self
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range p.Roots {
		walk(r)
	}
	return sum
}

// FormatProfile renders the profile as an EXPLAIN ANALYZE-style tree:
//
//	query: 18.3ms total, 2 workers
//	└─ sort  0.1ms (0.6%)  rows=4
//	   └─ agg  7.7ms (42.1%)  rows=4 in=60175 spilled=1.2MB written=0.4MB raw=3 lz4-a8=12
//	      └─ scan lineitem  10.4ms (56.8%)  rows=60175
func FormatProfile(p *Profile) string {
	if p == nil {
		return "(no profile)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s total, %d workers\n", fmtDur(p.Total), p.Workers)
	q := &p.Query
	if p.AdmissionWait > 0 || p.MemoryGrant > 0 {
		fmt.Fprintf(&sb, "admission: wait=%s grant=%s budget-peak=%s\n",
			fmtDur(p.AdmissionWait), fmtBytes(p.MemoryGrant), fmtBytes(q[metrics.BudgetPeakBytes]))
	}
	if q[metrics.AllocObjects] > 0 || q[metrics.GCCycles] > 0 {
		approx := ""
		if p.AllocApprox {
			approx = " (approx: concurrent queries)"
		}
		fmt.Fprintf(&sb, "gc: allocs=%d alloc-bytes=%s cycles=%d pause=%s%s\n",
			q[metrics.AllocObjects], fmtBytes(q[metrics.AllocBytes]), q[metrics.GCCycles],
			fmtDur(time.Duration(q[metrics.GCPauseNanos])), approx)
	}
	for _, r := range p.Roots {
		formatNode(&sb, r, "", p.Total)
	}
	return sb.String()
}

func formatNode(sb *strings.Builder, n *ProfileNode, indent string, total time.Duration) {
	pct := 0.0
	if total > 0 {
		pct = float64(n.Self) / float64(total) * 100
	}
	sb.WriteString(indent)
	sb.WriteString("└─ ")
	sb.WriteString(n.Op)
	if n.Label != "" {
		sb.WriteString(" ")
		sb.WriteString(n.Label)
	}
	fmt.Fprintf(sb, "  %s (%.1f%%)  rows=%d", fmtDur(n.Self), pct, n.RowsOut)
	// One tag per labelled non-zero counter, in table order.
	for k, v := range n.Snapshot {
		d := metrics.Counter(k).Def()
		if d.Label == "" || v == 0 {
			continue
		}
		switch d.Unit {
		case metrics.Flag:
			fmt.Fprintf(sb, " %s", d.Label)
		case metrics.Bytes:
			fmt.Fprintf(sb, " %s=%s", d.Label, fmtBytes(v))
		case metrics.Nanos:
			fmt.Fprintf(sb, " %s=%s", d.Label, fmtDur(time.Duration(v)))
		default:
			fmt.Fprintf(sb, " %s=%d", d.Label, v)
		}
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		formatNode(sb, c, indent+"   ", total)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
