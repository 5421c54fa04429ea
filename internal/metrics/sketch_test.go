package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestSketchQuantiles(t *testing.T) {
	s := NewSketch()
	// 1..1000 uniformly: quantiles should land near q*1000 within the
	// one-eighth-decade bucket resolution (~33% relative slack to be safe).
	for i := 1; i <= 1000; i++ {
		s.Observe(float64(i))
	}
	snap := s.Snapshot()
	if snap.Count != 1000 {
		t.Fatalf("Count = %d", snap.Count)
	}
	if snap.Min != 1 || snap.Max != 1000 {
		t.Fatalf("min/max = %g/%g", snap.Min, snap.Max)
	}
	if got, want := snap.Sum, float64(1000*1001/2); math.Abs(got-want) > 0.5 {
		t.Errorf("Sum = %g, want %g", got, want)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500}, {0.95, 950}, {0.99, 990},
	} {
		got := snap.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.33 {
			t.Errorf("Quantile(%g) = %g, want ~%g (rel err %.2f)", tc.q, got, tc.want, rel)
		}
	}
}

func TestSketchEmptyAndExtremes(t *testing.T) {
	s := NewSketch()
	if got := s.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g", got)
	}
	// One observation: every quantile is that observation.
	s.Observe(42)
	snap := s.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := snap.Quantile(q); math.Abs(got-42) > 42*0.15 {
			t.Errorf("Quantile(%g) = %g, want ~42", q, got)
		}
	}
	// Values beyond both ends land in the open buckets and clamp to
	// observed extremes.
	s2 := NewSketch(1, 10)
	s2.Observe(0.001)
	s2.Observe(5000)
	snap2 := s2.Snapshot()
	if got := snap2.Quantile(0); got < 0.001-1e-12 || got > 1 {
		t.Errorf("underflow quantile = %g", got)
	}
	if got := snap2.Quantile(1); got != 5000 {
		t.Errorf("overflow quantile = %g, want 5000 (clamped to max)", got)
	}
}

func TestSketchMerge(t *testing.T) {
	a, b := NewSketch(), NewSketch()
	for i := 1; i <= 500; i++ {
		a.Observe(float64(i))
	}
	for i := 501; i <= 1000; i++ {
		b.Observe(float64(i))
	}
	if err := a.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	// The merged sketch must equal a sketch that saw everything.
	all := NewSketch()
	for i := 1; i <= 1000; i++ {
		all.Observe(float64(i))
	}
	got, want := a.Snapshot(), all.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("merged = %+v, want %+v", got, want)
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: %d vs %d", i, got.Counts[i], want.Counts[i])
		}
	}
	// Mismatched bounds must be rejected.
	if err := a.Merge(NewSketch(1, 2, 3).Snapshot()); err == nil {
		t.Error("merge with different bounds succeeded")
	}
}

func TestSketchConcurrent(t *testing.T) {
	s := NewSketch()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Observe(float64(g*1000 + i + 1))
			}
		}(g)
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Count != 8000 {
		t.Errorf("Count = %d, want 8000", snap.Count)
	}
	var wantSum float64
	for i := 1; i <= 8000; i++ {
		wantSum += float64(i)
	}
	if math.Abs(snap.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("Sum = %g, want %g", snap.Sum, wantSum)
	}
}

// TestSketchSnapshotConsistentUnderObserve snapshots while writers observe:
// every snapshot's Count must equal the sum of its bucket counts, or an
// exposition could print a cumulative bucket above +Inf/_count.
func TestSketchSnapshotConsistentUnderObserve(t *testing.T) {
	s := NewSketch()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Observe(float64(g*100+i%100) + 0.5)
			}
		}(g)
	}
	for k := 0; k < 2000; k++ {
		snap := s.Snapshot()
		var sum int64
		for _, c := range snap.Counts {
			sum += c
		}
		if snap.Count != sum {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d: Count = %d, bucket sum = %d", k, snap.Count, sum)
		}
	}
	close(stop)
	wg.Wait()
}

func TestSketchFromHist(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	sk := SketchFromHist(h.Snapshot())
	if sk.Count != 100 {
		t.Fatalf("Count = %d", sk.Count)
	}
	p50 := sk.Quantile(0.50)
	if p50 < 20 || p50 > 80 {
		t.Errorf("p50 = %g, want near 50", p50)
	}
	// Interpolated estimate should be at least as tight as the hist's
	// upper-bound estimate is loose: both clamp within [min, max].
	if p50 < sk.Min || p50 > sk.Max {
		t.Errorf("p50 = %g outside [%g, %g]", p50, sk.Min, sk.Max)
	}
}

func TestSketchReset(t *testing.T) {
	s := NewSketch()
	s.Observe(3)
	s.Reset()
	snap := s.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 {
		t.Errorf("after Reset: %+v", snap)
	}
	if !math.IsInf(snap.Min, 1) || !math.IsInf(snap.Max, -1) {
		t.Errorf("after Reset min/max = %g/%g", snap.Min, snap.Max)
	}
}

func BenchmarkSketchObserve(b *testing.B) {
	s := NewSketch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i&1023) + 0.5)
	}
}

func BenchmarkSketchObserveParallel(b *testing.B) {
	s := NewSketch()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.5
		for pb.Next() {
			s.Observe(v)
			v += 1.0
			if v > 1e5 {
				v = 0.5
			}
		}
	})
}
