package experiment

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// WriteCSV serializers let downstream plotting (the artifact used a Python
// matplotlib script) consume sweep results without parsing the human-readable
// tables. The WriteJSON serializers mirror them one-to-one and double as the
// sweep service's wire format.

// WriteCSV writes a distance sweep as CSV: one row per distance, one column
// triple (ler, lo, hi) per policy.
func (s *DistanceSweep) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"d"}
	for _, n := range s.Names {
		header = append(header, n+"_ler", n+"_lo", n+"_hi")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, d := range s.Distances {
		row := []string{strconv.Itoa(d)}
		for p := range s.Names {
			row = append(row,
				formatFloat(s.LER[p][i]),
				formatFloat(s.LERLow[p][i]),
				formatFloat(s.LERHigh[p][i]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV writes a round series as CSV: one row per round, one LPR column
// per policy (plus data/parity splits when present).
func (r *RoundSeries) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"round"}
	header = append(header, r.Names...)
	if r.Data != nil {
		header = append(header, "data", "parity")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	if len(r.LPR) == 0 {
		cw.Flush()
		return cw.Error()
	}
	for i := range r.LPR[0] {
		row := []string{strconv.Itoa(i + 1)}
		for s := range r.Names {
			row = append(row, formatFloat(r.LPR[s][i]))
		}
		if r.Data != nil {
			row = append(row, formatFloat(r.Data[i]), formatFloat(r.Parity[i]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV writes a cycle series as CSV: one row per cycle count, one LER
// column per policy.
func (c *CycleSeries) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"cycle"}
	header = append(header, c.Names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, cy := range c.Cycles {
		row := []string{strconv.Itoa(cy)}
		for s := range c.Names {
			row = append(row, formatFloat(c.LER[s][i]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 8, 64)
}

// ------------------------------------------------------------------ JSON --

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

// distanceSweepJSON mirrors DistanceSweep's CSV columns: one series per
// policy, each with per-distance LER and Wilson bounds.
type distanceSweepJSON struct {
	Title     string              `json:"title"`
	P         float64             `json:"p"`
	Distances []int               `json:"distances"`
	Series    []distanceSeriesRow `json:"series"`
}

type distanceSeriesRow struct {
	Name    string    `json:"name"`
	LER     []float64 `json:"ler"`
	LERLow  []float64 `json:"ler_lo"`
	LERHigh []float64 `json:"ler_hi"`
}

// WriteJSON writes the distance sweep as JSON, mirroring WriteCSV.
func (s *DistanceSweep) WriteJSON(w io.Writer) error {
	out := distanceSweepJSON{Title: s.Title, P: s.P, Distances: s.Distances}
	for p, n := range s.Names {
		out.Series = append(out.Series, distanceSeriesRow{
			Name: n, LER: s.LER[p], LERLow: s.LERLow[p], LERHigh: s.LERHigh[p],
		})
	}
	return writeJSON(w, out)
}

// roundSeriesJSON mirrors RoundSeries's CSV columns: per-policy LPR series
// indexed by round, with the optional data/parity split.
type roundSeriesJSON struct {
	Title    string           `json:"title"`
	Distance int              `json:"distance"`
	Series   []roundSeriesRow `json:"series"`
	Data     []float64        `json:"data,omitempty"`
	Parity   []float64        `json:"parity,omitempty"`
}

type roundSeriesRow struct {
	Name string    `json:"name"`
	LPR  []float64 `json:"lpr"`
}

// WriteJSON writes the round series as JSON, mirroring WriteCSV.
func (r *RoundSeries) WriteJSON(w io.Writer) error {
	out := roundSeriesJSON{Title: r.Title, Distance: r.Distance, Data: r.Data, Parity: r.Parity}
	for s, n := range r.Names {
		out.Series = append(out.Series, roundSeriesRow{Name: n, LPR: r.LPR[s]})
	}
	return writeJSON(w, out)
}

// cycleSeriesJSON mirrors CycleSeries's CSV columns.
type cycleSeriesJSON struct {
	Title    string           `json:"title"`
	Distance int              `json:"distance"`
	Cycles   []int            `json:"cycles"`
	Series   []cycleSeriesRow `json:"series"`
}

type cycleSeriesRow struct {
	Name string    `json:"name"`
	LER  []float64 `json:"ler"`
}

// WriteJSON writes the cycle series as JSON, mirroring WriteCSV.
func (c *CycleSeries) WriteJSON(w io.Writer) error {
	out := cycleSeriesJSON{Title: c.Title, Distance: c.Distance, Cycles: c.Cycles}
	for s, n := range c.Names {
		out.Series = append(out.Series, cycleSeriesRow{Name: n, LER: c.LER[s]})
	}
	return writeJSON(w, out)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
