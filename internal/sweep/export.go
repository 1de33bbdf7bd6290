package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

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
	Topology  string  `json:"topology,omitempty"`
	ChurnRate float64 `json:"churn_rate,omitempty"`
	Runs      int     `json:"runs"`

	Goodput       float64 `json:"goodput"`
	GoodputCI     float64 `json:"goodput_ci95"`
	NormEnergy    float64 `json:"norm_energy_j_per_kbit"`
	NormEnergyCI  float64 `json:"norm_energy_ci95"`
	IdealEnergy   float64 `json:"ideal_energy_j_per_kbit"`
	IdealEnergyCI float64 `json:"ideal_energy_ci95"`
	MeanDelayS    float64 `json:"mean_delay_s"`
}

func toExportCell(c CellSummary) exportCell {
	return exportCell{
		Model:         c.Point.Model.String(),
		Senders:       c.Point.Senders,
		Burst:         c.Point.Burst,
		Traffic:       c.Point.Traffic.String(),
		Topology:      c.Point.Topology,
		ChurnRate:     c.Point.Churn,
		Runs:          c.Runs,
		Goodput:       c.Goodput.Mean,
		GoodputCI:     c.Goodput.CI95,
		NormEnergy:    c.NormEnergy.Mean,
		NormEnergyCI:  c.NormEnergy.CI95,
		IdealEnergy:   c.IdealEnergy.Mean,
		IdealEnergyCI: c.IdealEnergy.CI95,
		MeanDelayS:    c.MeanDelay.Seconds(),
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
			Attempts: ce.Attempts, Error: ce.Err.Error(),
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
	// Attempts is how many executions the cell got before quarantine.
	Attempts int `json:"attempts"`
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
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
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
