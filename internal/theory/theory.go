// Package theory implements the parts of the paper's convergence
// analysis that the experiments and examples evaluate: the
// optimal-learning-rate cubic (Equation 7) and the resulting Theorem 1
// gap factor between 1 and p learners, the ASGD learning rate of Lian et
// al., the SASGD guarantee (Theorem 2) minimized over γ = γp — whose
// growth in T is Theorem 4 — and the update threshold of Corollary 3.
// The ASGD bound and its constraint (Equations 1 and 2, with α),
// Theorem 2's constraint and Corollary 3's γ and asymptotic bound are
// written out in the package's tests, which check every claim the paper
// states about all of them (gap ≈ p/α for 16 ≤ α ≤ p, guarantee worsens
// with T, and so on).
//
// Notation follows the paper's Table III: Df = f(x₁) − f(x*), L the
// Lipschitz constant of ∇f, σ² the gradient-variance bound, M the
// minibatch size, p the learner count, T the aggregation interval, γ the
// local learning rate and γp the global one, K the update count, and
// S = M·T·K·p the total samples processed.
package theory

import (
	"fmt"
	"math"
)

// Constants holds the problem constants of the analysis.
type Constants struct {
	Df     float64 // initial suboptimality f(x₁) − f(x*)
	L      float64 // Lipschitz constant of the gradient
	Sigma2 float64 // variance bound σ² on the stochastic gradient
	M      int     // minibatch size
}

func (c Constants) validate() {
	if c.Df <= 0 || c.L <= 0 || c.Sigma2 <= 0 || c.M <= 0 {
		panic(fmt.Sprintf("theory: invalid constants %+v (all must be positive)", c))
	}
}

// KForAlpha returns the number of updates K that makes the paper's α,
// K = α²·M·L·Df/σ².
func KForAlpha(c Constants, alpha float64) int {
	c.validate()
	return int(math.Ceil(alpha * alpha * float64(c.M) * c.L * c.Df / c.Sigma2))
}

// Objective is the Equation 5 objective 2/c + c + 2·p·c²/α minimized
// over c to find the optimal learning rate.
func Objective(p int, alpha, c float64) float64 {
	if c <= 0 {
		panic("theory: Objective needs c > 0")
	}
	return 2/c + c + 2*float64(p)*c*c/alpha
}

// CMax is the Equation 6 upper limit of the feasible region:
// c ≤ α/(4p²)·(−1 + sqrt(1 + 8p²)).
func CMax(p int, alpha float64) float64 {
	pf := float64(p)
	return alpha / (4 * pf * pf) * (-1 + math.Sqrt(1+8*pf*pf))
}

// OptimalC minimizes the Equation 5 objective over (0, CMax] — the
// optimal normalized learning rate. The unconstrained stationary point
// solves the Equation 7 cubic 4·p·c³ + α·c² − 2·α = 0; if it exceeds
// CMax the constrained optimum is CMax itself (the objective is
// decreasing up to the stationary point).
func OptimalC(p int, alpha float64) float64 {
	if p <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("theory: OptimalC needs positive p, α (got %d, %g)", p, alpha))
	}
	root := cubicRoot(float64(p), alpha)
	if cmax := CMax(p, alpha); root > cmax {
		return cmax
	}
	return root
}

// cubicRoot finds the unique positive root of 4·p·c³ + α·c² − 2·α = 0
// by bisection (the function is −2α < 0 at c=0 and strictly increasing
// for c > 0, so exactly one positive root exists).
func cubicRoot(p, alpha float64) float64 {
	f := func(c float64) float64 { return 4*p*c*c*c + alpha*c*c - 2*alpha }
	lo, hi := 0.0, 1.0
	for f(hi) < 0 {
		hi *= 2
		if hi > 1e12 {
			panic("theory: cubic root bracketing failed")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// GapFactor computes Theorem 1's ratio: the optimal ASGD convergence
// guarantee for p learners divided by the guarantee for 1 learner, at
// the same α (same K). The theorem states the ratio is approximately p/α
// when 16 ≤ α ≤ p.
func GapFactor(p int, alpha float64) float64 {
	c1 := OptimalC(1, alpha)
	cp := OptimalC(p, alpha)
	return Objective(p, alpha, cp) / Objective(1, alpha, c1)
}

// TheoryLearningRate returns the learning rate sqrt(Df/(M·K·L·σ²)) that
// the ASGD analysis of Lian et al. prescribes — the rate the paper plugs
// in for Figure 3 (≈0.005 on their CIFAR-10 setup, versus the practical
// 0.1).
func TheoryLearningRate(c Constants, k int) float64 {
	c.validate()
	if k <= 0 {
		panic("theory: TheoryLearningRate needs K > 0")
	}
	return math.Sqrt(c.Df / (float64(c.M) * float64(k) * c.L * c.Sigma2))
}

// SASGDBound evaluates Theorem 2: after K global allreduce updates of
// SASGD with S = M·T·K·p samples processed,
//
//	(1/K)·Σ E‖∇f(x_k)‖² ≤ 2·Df/(S·γp) + 2·L²·σ²·γp·γ·M·T + L·σ²·γp
func SASGDBound(c Constants, p, t, k int, gamma, gammaP float64) float64 {
	c.validate()
	if p <= 0 || t <= 0 || k <= 0 || gamma <= 0 || gammaP <= 0 {
		panic("theory: SASGDBound needs positive arguments")
	}
	m := float64(c.M)
	s := m * float64(t) * float64(k) * float64(p)
	return 2*c.Df/(s*gammaP) +
		2*c.L*c.L*c.Sigma2*gammaP*gamma*m*float64(t) +
		c.L*c.Sigma2*gammaP
}

// CorollaryKThreshold returns Corollary 3's minimum number of global
// updates K for the asymptotic rate to apply:
//
//	K ≥ (4·M·L·Df/σ²) · (max{p, T}+1)² / (p·T)
func CorollaryKThreshold(c Constants, p, t int) float64 {
	c.validate()
	mx := float64(p)
	if t > p {
		mx = float64(t)
	}
	return 4 * float64(c.M) * c.L * c.Df / c.Sigma2 * (mx + 1) * (mx + 1) / (float64(p) * float64(t))
}

// BestSASGDBound minimizes the Theorem 2 bound over the feasible
// (γ = γp) range for fixed S (samples), the quantity whose monotone
// growth in T is Theorem 4. K is derived from S = M·T·K·p.
func BestSASGDBound(c Constants, p, t int, s float64) float64 {
	c.validate()
	m := float64(c.M)
	k := int(math.Max(1, math.Floor(s/(m*float64(t)*float64(p)))))
	// Feasible γ upper limit from the constraint with γ = γp:
	// γ·L·M·T·p + 2·L²·M²·T²·γ² ≤ 1.
	a := 2 * c.L * c.L * m * m * float64(t) * float64(t)
	b := c.L * m * float64(t) * float64(p)
	gmax := (-b + math.Sqrt(b*b+4*a)) / (2 * a)
	// The bound is convex in γ; golden-section search over (0, gmax].
	lo, hi := gmax*1e-9, gmax
	phi := (math.Sqrt(5) - 1) / 2
	f := func(g float64) float64 { return SASGDBound(c, p, t, k, g, g) }
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := f(x1), f(x2)
	for i := 0; i < 120; i++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = f(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = f(x2)
		}
	}
	return math.Min(f1, f2)
}
