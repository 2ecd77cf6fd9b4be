package core

import (
	"slices"

	"github.com/spilly-db/spilly/internal/codec"
)

// PinScheme moves r to scheme id on DefaultScale. With a RunN past the
// test's page count it stays there, whatever the timing.
func (r *Regulator) PinScheme(id codec.ID) { r.level = slices.Index(DefaultScale, id) }
