package exact

import (
	"math"
	"testing"
)

// TestWeightTableKeepsTermBits pins the division-free recurrence to the
// term it stands for: for every k and position i, each label difference
// the recurrence can see (+1, −1, +0) times w[i] has the bits of
// difference/k · min(k,i)/i evaluated with its two divisions.
func TestWeightTableKeepsTermBits(t *testing.T) {
	const maxI = 4096
	for k := 1; k <= 12; k++ {
		e := &Estimator{k: k}
		e.growWeights(maxI + 1)
		kf := float64(k)
		for i := 1; i <= maxI; i++ {
			for _, d := range []float64{1, -1, 0} {
				minK := kf
				if fi := float64(i); fi < minK {
					minK = fi
				}
				want := d / kf * minK / float64(i)
				got := float64(d * e.w[i])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("k=%d i=%d d=%v: table term %v (%#x), divided term %v (%#x)",
						k, i, d, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
