package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// exportFloat is an exported metric. JSON has no Inf or NaN, so a
// non-finite value encodes as null: a point that spent energy but
// delivered nothing summarizes to a J/Kbit of +Inf (and a NaN CI).
type exportFloat float64

// MarshalJSON encodes finite values exactly as a float64 would.
func (f exportFloat) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(f), 0) || math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// exportCell is the stable JSON shape of one summarized grid point.
type exportCell struct {
	Model   string `json:"model"`
	Senders int    `json:"senders"`
	Burst   int    `json:"burst_packets"`
	Traffic string `json:"traffic"`
	// Topology and ChurnRate are the scenario axes. In JSON they are
	// omitted for default-scenario cells (pre-redesign exports keep
	// their shape); in CSV they append as trailing columns so legacy
	// positional consumers are unaffected.
	Topology  string      `json:"topology,omitempty"`
	ChurnRate exportFloat `json:"churn_rate,omitempty"`
	Runs      int         `json:"runs"`

	Goodput       exportFloat `json:"goodput"`
	GoodputCI     exportFloat `json:"goodput_ci95"`
	NormEnergy    exportFloat `json:"norm_energy_j_per_kbit"`
	NormEnergyCI  exportFloat `json:"norm_energy_ci95"`
	IdealEnergy   exportFloat `json:"ideal_energy_j_per_kbit"`
	IdealEnergyCI exportFloat `json:"ideal_energy_ci95"`
	MeanDelayS    exportFloat `json:"mean_delay_s"`
}

func toExportCell(c CellSummary) exportCell {
	return exportCell{
		Model:         c.Point.Model.String(),
		Senders:       c.Point.Senders,
		Burst:         c.Point.Burst,
		Traffic:       c.Point.Traffic.String(),
		Topology:      c.Point.Topology,
		ChurnRate:     exportFloat(c.Point.Churn),
		Runs:          c.Runs,
		Goodput:       exportFloat(c.Goodput.Mean),
		GoodputCI:     exportFloat(c.Goodput.CI95),
		NormEnergy:    exportFloat(c.NormEnergy.Mean),
		NormEnergyCI:  exportFloat(c.NormEnergy.CI95),
		IdealEnergy:   exportFloat(c.IdealEnergy.Mean),
		IdealEnergyCI: exportFloat(c.IdealEnergy.CI95),
		MeanDelayS:    exportFloat(c.MeanDelay.Seconds()),
	}
}

// WriteJSON exports the outcome's per-cell summaries as an indented
// JSON document; see Summary.WriteJSON.
func WriteJSON(w io.Writer, o *Outcome) error { return o.Summary().WriteJSON(w) }

// WriteJSON exports the per-cell summaries as an indented JSON
// document: {"cells": [...], "jobs": N, "cached": M}.
func (sum *Summary) WriteJSON(w io.Writer) error {
	doc := struct {
		Jobs   int          `json:"jobs"`
		Cached int          `json:"cached"`
		Cells  []exportCell `json:"cells"`
		// Failed and Errors surface quarantined jobs of a partial
		// sweep; both are omitted for fully successful outcomes, so
		// the document shape (and byte-identity) of clean sweeps is
		// unchanged.
		Failed int           `json:"failed,omitempty"`
		Errors []exportError `json:"errors,omitempty"`
	}{Jobs: sum.Jobs, Cached: sum.Cached, Cells: []exportCell{}}
	for _, c := range sum.Cells {
		doc.Cells = append(doc.Cells, toExportCell(c))
	}
	doc.Failed = len(sum.Errors)
	for _, ce := range sum.Errors {
		doc.Errors = append(doc.Errors, exportError{
			Index: ce.Index, Point: ce.Point.String(), Rep: ce.Rep,
			Error: ce.Err.Error(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// exportError is the stable JSON shape of one quarantined job.
type exportError struct {
	// Index is the job's position in the sweep's job list.
	Index int `json:"index"`
	// Point and Rep identify the cell within the grid.
	Point string `json:"point"`
	// Rep is the seeded repetition index within the point.
	Rep int `json:"rep"`
	// Error is the cell's final failure.
	Error string `json:"error"`
}

// csvHeader is the fixed column order of WriteCSV.
var csvHeader = []string{
	"model", "senders", "burst_packets", "traffic", "runs",
	"goodput", "goodput_ci95",
	"norm_energy_j_per_kbit", "norm_energy_ci95",
	"ideal_energy_j_per_kbit", "ideal_energy_ci95",
	"mean_delay_s",
	// The scenario axes append after every legacy column so positional
	// consumers of pre-redesign CSVs keep reading the same fields.
	"topology", "churn_rate",
}

// WriteCSV exports the outcome's per-cell summaries as CSV; see
// Summary.WriteCSV.
func WriteCSV(w io.Writer, o *Outcome) error { return o.Summary().WriteCSV(w) }

// WriteCSV exports the per-cell summaries as CSV, one row per grid
// point, with a header row.
func (sum *Summary) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("sweep: csv export: %w", err)
	}
	f := func(v exportFloat) string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }
	for _, cell := range sum.Cells {
		e := toExportCell(cell)
		row := []string{
			e.Model, strconv.Itoa(e.Senders), strconv.Itoa(e.Burst),
			e.Traffic, strconv.Itoa(e.Runs),
			f(e.Goodput), f(e.GoodputCI),
			f(e.NormEnergy), f(e.NormEnergyCI),
			f(e.IdealEnergy), f(e.IdealEnergyCI),
			f(e.MeanDelayS),
			e.Topology, f(e.ChurnRate),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("sweep: csv export: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("sweep: csv export: %w", err)
	}
	return nil
}
