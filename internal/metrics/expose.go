package metrics

import (
	"fmt"
	"io"
)

// WriteJSON renders the snapshot as one deterministic JSON object
// ({"name": value, ...} in sorted name order). Values are written with
// FormatValue, so two identical snapshots always produce identical bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, smp := range s {
		sep := ""
		if i > 0 {
			sep = ","
		}
		if _, err := fmt.Fprintf(w, "%s\n  %q: %s", sep, smp.Name, smp.FormatValue()); err != nil {
			return err
		}
	}
	tail := "}"
	if len(s) > 0 {
		tail = "\n}"
	}
	_, err := io.WriteString(w, tail)
	return err
}
