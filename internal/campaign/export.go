package campaign

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is the column layout of WriteCSV, one row per cell result.
var csvHeader = []string{
	"key", "id", "dataset", "rule", "attack", "attack_param", "codec",
	"num_byz", "noniid_s", "seed", "clients", "rounds",
	"best_acc", "final_acc", "diverged",
	"sel_honest", "sel_malicious", "wire_bytes", "duration_ms", "cached",
}

// WriteCSV emits one row per result, suitable for spreadsheet/pandas
// post-processing of a sweep.
func WriteCSV(w io.Writer, results []*CellResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	for _, r := range results {
		c := r.Cell
		selH, selM := "", ""
		if r.HasSelection {
			selH, selM = f(r.SelHonest), f(r.SelMalicious)
		}
		row := []string{
			r.Key, c.ID(), c.Dataset, c.Rule, c.Attack, f(c.AttackParam), c.Codec,
			strconv.Itoa(r.Cell.EffectiveByz()), f(c.NonIIDS),
			strconv.FormatInt(c.Params.Seed, 10),
			strconv.Itoa(c.Params.Clients), strconv.Itoa(c.Params.Rounds),
			f(r.BestAccuracy), f(r.FinalAccuracy), strconv.FormatBool(r.Diverged),
			selH, selM, strconv.FormatInt(r.WireBytes, 10),
			strconv.FormatInt(r.DurationMS, 10), strconv.FormatBool(r.Cached),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the results as an indented JSON array (full traces and
// probe payloads included).
func WriteJSON(w io.Writer, results []*CellResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if results == nil {
		results = []*CellResult{}
	}
	return enc.Encode(results)
}

// WriteExport dispatches on format: per-cell rows ("csv", "json") or
// seed-group aggregates with mean/std/95% CI ("group-csv", "group-json").
func WriteExport(w io.Writer, format string, results []*CellResult) error {
	switch format {
	case "csv":
		return WriteCSV(w, results)
	case "json":
		return WriteJSON(w, results)
	case "group-csv":
		return WriteGroupCSV(w, results)
	case "group-json":
		return WriteGroupJSON(w, results)
	default:
		return fmt.Errorf("campaign: unknown export format %q (want csv|json|group-csv|group-json)", format)
	}
}
