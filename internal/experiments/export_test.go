package experiments

// Lookups only the tests use: the figures print whole tables.

// FinalTestAt returns the final test accuracy of the run with the given
// T (0 if absent).
func (r *TImpactResult) FinalTestAt(t int) float64 {
	for _, run := range r.Runs {
		if run.T == t {
			return run.FinalTest
		}
	}
	return 0
}

// SpeedupAt returns the speedup of (T, p) over the sequential run.
func (r *EpochTimeResult) SpeedupAt(t, p int) float64 {
	for _, row := range r.Rows {
		if row.T == t && row.P == p && row.EpochSecs > 0 {
			return r.SeqSecs / row.EpochSecs
		}
	}
	return 0
}

// EpochSecsAt returns the epoch time at (T, p), or 0 if absent.
func (r *EpochTimeResult) EpochSecsAt(t, p int) float64 {
	for _, row := range r.Rows {
		if row.T == t && row.P == p {
			return row.EpochSecs
		}
	}
	return 0
}
