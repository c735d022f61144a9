package comm

import (
	"sync"
	"testing"
)

// TestSimulatedLinkKeepsStampOrder: two goroutines send on one directed
// link at once, and the stamp FIFO must pair every frame with its own
// arrival. With every departure at 0
// and one simulated second per word, the n-th arrival is the total size
// of the first n frames in link order, so after each receive the
// receiver's clock must equal the words it has received so far; a stamp
// paired with another frame shows as a different sum.
func TestSimulatedLinkKeepsStampOrder(t *testing.T) {
	const perSender = 200
	recv := &simpleClock{}
	s := newSimTransport(newChanTransport(2), nil, []Clock{&simpleClock{}, recv}, wordCost{})
	defer s.Close()
	var wg sync.WaitGroup
	for sender := 0; sender < 2; sender++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				words := 1 + (i*7+sender*3)%11 // uneven sizes, different per sender
				s.Send(0, 1, Frame{Data: make([]float64, words)})
			}
		}(sender)
	}
	got := 0.0
	for n := 0; n < 2*perSender; n++ {
		got += float64(len(s.Recv(1, 0).Data))
		if recv.now != got {
			t.Fatalf("after %d frames the receiver's clock is %g, want the %g words received", n+1, recv.now, got)
		}
	}
	wg.Wait()
}
