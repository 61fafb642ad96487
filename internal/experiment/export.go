package experiment

import (
	"encoding/json"
	"io"
	"strconv"
)

// Machine-readable views of results. Result.WriteJSON is the sweep
// service's wire format (GET /v1/result); HeterogeneitySweep's CSV and JSON
// exporters (cmd/leakage -csv/-json) share formatFloat and writeJSON.

// ResultJSON is the JSON view of a Result: the identifying fields of its
// Config flattened next to the derived statistics.
type ResultJSON struct {
	Policy        string    `json:"policy"`
	Distance      int       `json:"distance"`
	Rounds        int       `json:"rounds"`
	P             float64   `json:"p"`
	Seed          uint64    `json:"seed"`
	Shots         int       `json:"shots"`
	LogicalErrors int       `json:"logical_errors"`
	LER           float64   `json:"ler"`
	LERLow        float64   `json:"ler_lo"`
	LERHigh       float64   `json:"ler_hi"`
	LPRTotal      []float64 `json:"lpr_total,omitempty"`
	LPRData       []float64 `json:"lpr_data,omitempty"`
	LPRParity     []float64 `json:"lpr_parity,omitempty"`
	LRCsPerRound  float64   `json:"lrcs_per_round"`
	TruePos       int64     `json:"tp"`
	FalsePos      int64     `json:"fp"`
	TrueNeg       int64     `json:"tn"`
	FalseNeg      int64     `json:"fn"`
	Accuracy      float64   `json:"accuracy"`
	FPR           float64   `json:"fpr"`
	FNR           float64   `json:"fnr"`
}

// JSONView returns the serializable view of the result.
func (r *Result) JSONView() ResultJSON {
	return ResultJSON{
		Policy:        r.PolicyName,
		Distance:      r.Config.Distance,
		Rounds:        r.Rounds,
		P:             r.Config.P,
		Seed:          r.Config.Seed,
		Shots:         r.Shots,
		LogicalErrors: r.LogicalErrors,
		LER:           r.LER,
		LERLow:        r.LERLow,
		LERHigh:       r.LERHigh,
		LPRTotal:      r.LPRTotal,
		LPRData:       r.LPRData,
		LPRParity:     r.LPRParity,
		LRCsPerRound:  r.LRCsPerRound,
		TruePos:       r.TruePos,
		FalsePos:      r.FalsePos,
		TrueNeg:       r.TrueNeg,
		FalseNeg:      r.FalseNeg,
		Accuracy:      r.Accuracy(),
		FPR:           r.FPR(),
		FNR:           r.FNR(),
	}
}

// WriteJSON writes the result as an indented JSON object.
func (r *Result) WriteJSON(w io.Writer) error {
	return writeJSON(w, r.JSONView())
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// formatFloat renders one CSV cell to 8 significant digits.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 8, 64)
}
