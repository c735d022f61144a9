package experiments

import (
	"math/rand"

	"sasgd/internal/data"
	"sasgd/internal/report"
	"sasgd/internal/tensor"
	"sasgd/internal/theory"
)

// Oracle adapts a workload to theory.GradientOracle so the paper's
// constant-estimation procedure (Section II-B: estimate L and σ², bound
// Df by f(x₁)) runs against the actual model and dataset. Full-batch
// quantities are computed over the training set in chunks.
func (w *Workload) Oracle(seed int64) *theory.GradientOracle {
	net := w.Problem.Model(seed)
	ds := w.Problem.Train
	dim := net.NumParams()
	rng := rand.New(rand.NewSource(seed + 99))
	sampler := data.NewUniformSampler(ds.Len(), w.Batch, seed+7)

	const chunk = 256
	fullPass := func(x []float64, accumGrad []float64) float64 {
		net.SetParamData(x)
		total := 0.0
		n := ds.Len()
		idx := make([]int, 0, chunk)
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			idx = idx[:0]
			for i := lo; i < hi; i++ {
				idx = append(idx, i)
			}
			bx, by := ds.Batch(idx)
			if accumGrad != nil {
				loss := net.Step(bx, by)
				total += loss * float64(hi-lo)
				// Step's gradient is the chunk mean; re-weight so the
				// accumulated result is the full-batch mean gradient.
				tensor.Axpy(float64(hi-lo)/float64(n), net.GradData(), accumGrad)
			} else {
				logits := net.Forward(bx, false)
				total += net.Loss(logits, by) * float64(hi-lo)
			}
		}
		return total / float64(n)
	}

	return &theory.GradientOracle{
		Dim: dim,
		Loss: func(x []float64) float64 {
			return fullPass(x, nil)
		},
		FullGrad: func(x, out []float64) {
			for i := range out {
				out[i] = 0
			}
			fullPass(x, out)
		},
		SampleGrad: func(x, out []float64) {
			net.SetParamData(x)
			bx, by := ds.Batch(sampler.Next())
			net.Step(bx, by)
			copy(out, net.GradData())
		},
		Init: func() []float64 {
			init := w.Problem.Model(seed)
			return append([]float64(nil), init.ParamData()...)
		},
		Perturb: func() []float64 {
			u := make([]float64, dim)
			for i := range u {
				u[i] = rng.NormFloat64()
			}
			return u
		},
	}
}

// DerivedRateResult is the outcome of the paper's Figure-3 learning-rate
// derivation on a workload.
type DerivedRateResult struct {
	Constants theory.Constants
	K         int     // updates in the epoch budget used for the derivation
	Rate      float64 // γ = sqrt(Df/(M·K·L·σ²))
}

// DerivedRate reproduces the paper's Section II-B procedure on the image
// workload: estimate Df, L and σ² at the initialization, set K to the
// update count of the figure's epoch budget (the paper uses
// M·K = 500,000), and evaluate the theory-prescribed learning rate. The
// paper obtains ≈0.005 versus the practical 0.1; at our scale the same
// procedure also lands one-to-two orders of magnitude below the
// practical rate.
func DerivedRate(opt Opt) DerivedRateResult {
	w := ImageWorkload()
	o := w.Oracle(1 + opt.Seed)
	consts := theory.EstimateConstants(o, w.Batch, theory.EstimateOptions{
		VarianceSamples: 12,
		LipschitzProbes: 6,
	})
	epochs := opt.epochs(w.Epochs)
	k := epochs * (w.Problem.Train.Len() / w.Batch)
	if k < 1 {
		k = 1
	}
	res := DerivedRateResult{Constants: consts, K: k, Rate: theory.TheoryLearningRate(consts, k)}

	tab := report.Table{
		Title:  "Figure 3 derivation: constants estimated on the workload (paper §II-B)",
		Header: []string{"Df=f(x1)", "L (est.)", "sigma^2 (est.)", "M", "K", "gamma_theory"},
	}
	tab.AddRow(ftoa(consts.Df), ftoa(consts.L), ftoa(consts.Sigma2),
		itoa(consts.M), itoa(k), ftoa(res.Rate))
	fprintf(opt.out(), "%s\n", tab.String())
	return res
}
