package matching

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkHungarianMatching(b *testing.B) {
	for _, size := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(20150707))
			cost := make([][]float64, size)
			for i := range cost {
				cost[i] = make([]float64, size)
				for j := range cost[i] {
					cost[i][j] = rng.Float64() * 100
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
