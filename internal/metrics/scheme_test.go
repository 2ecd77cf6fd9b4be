package metrics_test

import (
	"testing"

	"github.com/spilly-db/spilly/internal/codec"
	"github.com/spilly-db/spilly/internal/core"
	"github.com/spilly-db/spilly/internal/metrics"
)

// TestSchemeRowsAreTheScale: the scheme rows are exactly the levels of the
// unified compression scale, in its order, each labelled with its codec's
// name (raw for uncompressed) — the key Stats.Schemes has always used — under
// a JSON key and a label set of its own.
func TestSchemeRowsAreTheScale(t *testing.T) {
	if len(core.DefaultScale) != metrics.NumSchemes {
		t.Fatalf("the scale has %d levels, the table %d scheme rows", len(core.DefaultScale), metrics.NumSchemes)
	}
	jsonKeys, labelSets := map[string]bool{}, map[string]bool{}
	for level, id := range core.DefaultScale {
		d := (metrics.SpilledPages + metrics.Counter(level)).Def()
		name := "raw"
		if c := codec.ByID(id); c != nil {
			name = c.Name()
		}
		if d.Labels != (metrics.LabelPair{Name: "scheme", Value: name}) || d.Label != name {
			t.Errorf("level %d (%s): labels %+v, profile label %q", level, name, d.Labels, d.Label)
		}
		if d.Family != metrics.SpilledPages.Def().Family || d.Kind != metrics.Sum || d.Unit != metrics.Count {
			t.Errorf("level %d: %+v is not a page count of the scheme family", level, *d)
		}
		if jsonKeys[d.JSON] || labelSets[d.Labels.String()] {
			t.Errorf("level %d: JSON key %q or label set %s repeats", level, d.JSON, d.Labels)
		}
		jsonKeys[d.JSON], labelSets[d.Labels.String()] = true, true
	}
	if got := metrics.SpilledPages.Def().Labels.String(); got != `scheme="raw"` {
		t.Errorf("raw's label set renders as %s", got)
	}
}
