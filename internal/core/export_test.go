package core

import (
	"math"
	"slices"

	"github.com/spilly-db/spilly/internal/codec"
)

// PinScheme moves r to scheme id on DefaultScale and freezes it there: its
// run never closes, so the level stays put whatever the timing.
func (r *Regulator) PinScheme(id codec.ID) {
	r.level = slices.Index(DefaultScale, id)
	r.runN = math.MaxInt
}
