package data

// BatchesPerEpoch returns how many Next calls make up one epoch. Only
// the tests and the example call it: the training loops size an epoch
// over all shards at once.
func (s *EpochSampler) BatchesPerEpoch() int {
	return (len(s.perm) + s.batch - 1) / s.batch
}
