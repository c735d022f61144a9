package obs

import "testing"

// The registry's overhead budget, in bench_test.go's mold: the disabled
// probe (a nil check) must stay at tracer parity (≈2 ns), the enabled
// record is a handful of atomics paid only under -metrics.

func BenchmarkMetricsDisabledProbe(b *testing.B) {
	var c *Counter
	var g *Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(1)
	}
}

func BenchmarkMetricsEnabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkMetricsEnabledGauge(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkMetricsEnabledRing(b *testing.B) {
	r := NewRegistry()
	s := r.Ring("s", 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RecordAt(int64(i), float64(i))
	}
}

func BenchmarkFleetIngest(b *testing.B) {
	r := NewRegistry()
	const p = 8
	f := NewFleet(r, p)
	buf := frameBuf(p)
	for rank := 0; rank < p; rank++ {
		Frame{Rank: rank, Live: true, T: 4, SimCompute: 0.1}.Encode(buf)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Ingest(int64(i), buf)
	}
}
