package nn

import (
	"fmt"
	"io"

	"sasgd/internal/tensor"
)

// Accessors and checkpoint round trips only the tests use: none has a
// caller in the library, the commands or bench/, so none is part of the
// package's API. Checkpoints outside tests are WriteParams/ReadParams.

// Save writes the network's parameters to w in the checkpoint format.
func (n *Network) Save(w io.Writer) error {
	return WriteParams(w, n.flatP)
}

// Load restores parameters previously written by Save. The checkpoint's
// parameter count must match this network's architecture exactly.
func (n *Network) Load(r io.Reader) error {
	tmp, err := ReadParams(r)
	if err != nil {
		return err
	}
	if len(tmp) != len(n.flatP) {
		return fmt.Errorf("nn: checkpoint has %d parameters, network has %d", len(tmp), len(n.flatP))
	}
	copy(n.flatP, tmp)
	return nil
}

// Params returns all learnable parameters in layer order.
func (n *Network) Params() []*Param { return n.params }

// Backward backpropagates from the most recent Loss call through every
// layer, leaving dLoss/dθ in GradData.
func (n *Network) Backward() { n.backward() }

// Probs returns the softmax probabilities from the most recent Loss call
// (nil before the first call). The returned tensor is owned by the
// criterion and is overwritten by the next Loss call.
func (s *SoftmaxCrossEntropy) Probs() *tensor.Tensor { return s.probs }
