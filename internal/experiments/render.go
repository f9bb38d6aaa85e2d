package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/signguard/signguard/internal/campaign"
)

// walk is one pass of an experiment's layout (Experiment.layout). The
// layout names each cell through cell at the place its value goes and hands
// each finished table to add, so a table's cells are the ones named since
// the previous add. A walk with no results (Spec) keeps the cells it was
// shown; a walk over results (Render) looks each cell up by its key and
// keeps the tables the results fill.
type walk struct {
	results map[string]*campaign.CellResult // nil: name cells only
	cells   []campaign.Cell                 // every cell named, in order
	tables  []*Table
	err     error // the first error of a table that was not left out

	// The open table: cells named, how many of them have no result, and
	// the first error its layout reported.
	named, absent int
	tableErr      error
}

// cell names c and returns its result; a cell without one reads as an
// empty result.
func (w *walk) cell(c campaign.Cell) *campaign.CellResult {
	w.cells = append(w.cells, c)
	w.named++
	if w.results != nil {
		key, err := c.Key()
		if err != nil {
			w.fail(err)
		} else if r, ok := w.results[key]; ok {
			return r
		}
	}
	w.absent++
	return &campaign.CellResult{}
}

// fail records an error of the open table's content.
func (w *walk) fail(err error) {
	if w.tableErr == nil {
		w.tableErr = err
	}
}

// add closes the open table as t. A table the results fill is kept, unless
// its layout failed; a table none of whose cells has a result is left out
// (the results were narrowed past it), and its errors with it; a table the
// results fill in part is an error, never a partial table.
func (w *walk) add(t *Table) {
	err := w.tableErr
	switch {
	case w.absent == w.named:
		err = nil
	case w.absent > 0:
		err = fmt.Errorf("experiments: %q has results for %d of its %d cells; a table renders whole or not at all",
			t.Title, w.named-w.absent, w.named)
	case err == nil:
		w.tables = append(w.tables, t)
	}
	if w.err == nil {
		w.err = err
	}
	w.named, w.absent, w.tableErr = 0, 0, nil
}

// Table is a rendered experiment result: the rows/series the paper reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Markdown writes the table as GitHub-flavoured markdown.
func (t *Table) Markdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// TSV writes the table as tab-separated values (header first).
func (t *Table) TSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// fmtAcc formats an accuracy percentage like the paper's tables.
func fmtAcc(v float64) string {
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// fmtRate formats a selection rate like the paper's Table II.
func fmtRate(v float64) string {
	return strconv.FormatFloat(v, 'f', 4, 64)
}
