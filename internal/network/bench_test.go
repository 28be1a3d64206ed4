package network

import "testing"

func BenchmarkRunGuestStep(b *testing.B) {
	ma := New(1, 256, 256, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunGuest(ma, caProg{}, 1, nil)
	}
}

func BenchmarkNeighbors2D(b *testing.B) {
	ma := New(2, 1024, 1024, 1)
	var buf []int
	for i := 0; i < b.N; i++ {
		buf = ma.Neighbors(i%1024, buf[:0])
		if len(buf) == 0 {
			b.Fatal("no neighbors")
		}
	}
}
