package theory

import (
	"fmt"
	"math"
)

// The closed forms below are checked by the tests against the paper's
// statements about them; no experiment or example evaluates them, so
// none is part of the package's API.

// ASGDBound evaluates the right-hand side of Equation 1: the guaranteed
// upper bound on the average expected gradient norm R̄_K after K updates
// of ASGD with p learners at learning rate gamma.
//
//	R̄_K ≤ 2·Df/(M·K·γ) + σ²·L·γ + 2·σ²·L²·M·p·γ²
func ASGDBound(c Constants, p, k int, gamma float64) float64 {
	c.validate()
	if p <= 0 || k <= 0 || gamma <= 0 {
		panic(fmt.Sprintf("theory: ASGDBound needs positive p, K, γ (got %d, %d, %g)", p, k, gamma))
	}
	m := float64(c.M)
	return 2*c.Df/(m*float64(k)*gamma) +
		c.Sigma2*c.L*gamma +
		2*c.Sigma2*c.L*c.L*m*float64(p)*gamma*gamma
}

// ASGDConstraintOK reports whether gamma satisfies Equation 2,
// L·M·γ + 2·L²·M²·p²·γ² ≤ 1, the validity condition of the bound.
func ASGDConstraintOK(c Constants, p int, gamma float64) bool {
	c.validate()
	m := float64(c.M)
	return c.L*m*gamma+2*c.L*c.L*m*m*float64(p*p)*gamma*gamma <= 1
}

// Alpha computes the paper's α = sqrt(M·K·L·Df/σ²)... specifically, the
// paper parameterizes γ = c·sqrt(Df/(M·K·L·σ²)) = c/(α·M·L) with
// α = sqrt(K·L·Df/(M·σ²))·M·L·sqrt(M/(M)) — operationally, α is defined
// by K = α²·M·L·Df/σ², which is the form the proof of Theorem 1 uses and
// the form we invert here.
func Alpha(c Constants, k int) float64 {
	c.validate()
	return math.Sqrt(float64(k) * c.Sigma2 / (float64(c.M) * c.L * c.Df))
}

// SASGDConstraintOK reports whether (γ, γp) satisfy Theorem 2's
// condition γp·L·M·T·p + 2·L²·M²·T²·γp·γ ≤ 1.
func SASGDConstraintOK(c Constants, p, t int, gamma, gammaP float64) bool {
	c.validate()
	m := float64(c.M)
	tf := float64(t)
	return gammaP*c.L*m*tf*float64(p)+2*c.L*c.L*m*m*tf*tf*gammaP*gamma <= 1
}

// CorollaryGamma returns Corollary 3's γ = γp = sqrt(2·Df/(S·σ²)).
func CorollaryGamma(c Constants, s float64) float64 {
	c.validate()
	if s <= 0 {
		panic("theory: CorollaryGamma needs S > 0")
	}
	return math.Sqrt(2 * c.Df / (s * c.Sigma2))
}

// CorollaryAsymptoticBound returns the Corollary 3 guarantee
// 4·sqrt(Df·L·σ²/S) that holds once K exceeds the threshold.
func CorollaryAsymptoticBound(c Constants, s float64) float64 {
	c.validate()
	return 4 * math.Sqrt(c.Df*c.L*c.Sigma2/s)
}
