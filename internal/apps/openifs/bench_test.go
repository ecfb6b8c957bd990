package openifs_test

import (
	"testing"

	"clustereval/internal/apps/openifs"
)

// BenchmarkFig14_RealFFT runs the real spectral transform per iteration.
func BenchmarkFig14_RealFFT(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), float64(i%5))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := openifs.FFT(x); err != nil {
			b.Fatal(err)
		}
		if err := openifs.IFFT(x); err != nil {
			b.Fatal(err)
		}
	}
}
