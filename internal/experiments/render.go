package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/signguard/signguard/internal/campaign"
)

// cursor walks a campaign's results in the same order the spec builder
// appended cells, so each renderer mirrors its grid-declaration loops.
// Reading past the end yields an empty result instead of panicking, and
// tables refuses any read count but the grid's: a renderer that drifted
// from its spec fails loudly.
type cursor struct {
	results []*campaign.CellResult
	i       int
}

func (c *cursor) next() *campaign.CellResult {
	c.i++
	if c.i > len(c.results) {
		return &campaign.CellResult{}
	}
	return c.results[c.i-1]
}

// tables returns ts once every result has been read exactly once.
func (c *cursor) tables(ts ...*Table) ([]*Table, error) {
	if c.i != len(c.results) {
		return nil, fmt.Errorf("experiments: renderer read %d results of a %d-cell grid", c.i, len(c.results))
	}
	return ts, nil
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
