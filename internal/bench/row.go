package bench

import (
	"fmt"
	"io"
)

// Row is one line of an experiment's report: a label, then either the
// measured values rendered through Format or the error that kept them from
// being measured. A row without a format is a title, heading, note or
// chart line.
type Row struct {
	Label  string
	Format string
	Values []float64
	Err    error
}

// String renders the row: "<label> ERROR: <cause>" when the measurement
// failed, the label alone when there is no format, and otherwise the label
// followed by the values through the format.
func (r Row) String() string {
	if r.Err != nil {
		return r.Label + " ERROR: " + r.Err.Error()
	}
	args := make([]any, len(r.Values))
	for i, v := range r.Values {
		args[i] = v
	}
	return r.Label + fmt.Sprintf(r.Format, args...)
}

// report prints an experiment's rows on w as they are produced and keeps
// them for the caller.
type report struct {
	w    io.Writer
	rows []Row
}

// add prints r and keeps it. A failed row keeps no values, so nothing the
// run did not measure comes back as a number.
func (rp *report) add(r Row) {
	if r.Err != nil {
		r.Values = nil
	}
	fmt.Fprintln(rp.w, r)
	rp.rows = append(rp.rows, r)
}

// line adds a row without a format.
func (rp *report) line(label string) { rp.add(Row{Label: label}) }

// ratio returns a/b, or 0 when b is not positive.
func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
}

// gain returns how far a exceeds b, in percent of b, or 0 when b is not
// positive.
func gain(a, b float64) float64 {
	if b > 0 {
		return 100 * (a/b - 1)
	}
	return 0
}

// firstErr returns the first non-nil error: the cause a row reports when
// one of its measurements failed.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
