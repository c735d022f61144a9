package nn

import (
	"fmt"
	"math"

	"sasgd/internal/tensor"
)

// SoftmaxCrossEntropy combines a softmax over class logits with the
// cross-entropy error the paper's networks train against. Loss reports
// the mean negative log-likelihood over the minibatch, and Backward
// returns the gradient with respect to the logits — (softmax − onehot)/N
// — already averaged over the batch so the optimizers see the standard
// minibatch gradient.
type SoftmaxCrossEntropy struct {
	probs  *tensor.Tensor
	labels []int
}

// NewSoftmaxCrossEntropy returns a softmax cross-entropy criterion.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Loss computes the mean cross-entropy of logits (N, C) against integer
// labels (len N) and retains the softmax probabilities for Backward.
func (s *SoftmaxCrossEntropy) Loss(logits *tensor.Tensor, labels []int) float64 {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy needs (N,C) logits, got %v", logits.Shape()))
	}
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy got %d labels for batch of %d", len(labels), n))
	}
	if s.probs == nil || s.probs.Dim(0) != n || s.probs.Dim(1) != c {
		s.probs = tensor.New(n, c)
	}
	s.labels = append(s.labels[:0], labels...)
	loss := 0.0
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range for %d classes", y, c))
		}
		row := logits.Data[i*c : (i+1)*c]
		prow := s.probs.Data[i*c : (i+1)*c]
		// numerically stable log-sum-exp
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - m)
			prow[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range prow {
			prow[j] *= inv
		}
		loss += -(row[y] - m - math.Log(sum))
	}
	return loss / float64(n)
}

// Backward returns dLoss/dLogits for the most recent Loss call.
func (s *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	if s.probs == nil {
		panic("nn: SoftmaxCrossEntropy.Backward before Loss")
	}
	n, c := s.probs.Dim(0), s.probs.Dim(1)
	grad := s.probs.Clone()
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := grad.Data[i*c : (i+1)*c]
		row[s.labels[i]] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
	return grad
}
