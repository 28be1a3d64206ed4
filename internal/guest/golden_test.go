package guest

import (
	"fmt"
	"testing"

	"bsmp/internal/hram"
	"bsmp/internal/network"
)

// TestGoldenGuestOutputs pins what the functional replay computes: the
// digest (network.Digest, a served run's outputs_digest) of
// RunGuestPure's outputs and final memory for MixCA, Rule90
// and Diffusion at d = 1, 2 and 3 (n = 64 on a mesh of side 64, 8 and 4)
// with m = 1 and 4, after 16 steps. The values were recorded before the
// replay gained a row path and must stay bit-identical.
func TestGoldenGuestOutputs(t *testing.T) {
	type stepper interface {
		InitAt(x, y int, mem []hram.Word) hram.Word
		Address(node, step, memSize int) int
		Step2(node, step int, cell hram.Word, prev []hram.Word) (hram.Word, hram.Word)
	}
	guests := []struct {
		name string
		g    stepper
	}{
		{"mixca", MixCA{Seed: 5}},
		{"rule90", Rule90{Seed: 5}},
		{"diffusion", Diffusion{Seed: 5}},
	}
	golden := map[string]string{
		"mixca/d=1/m=1":     "9b08b84fd0a92101",
		"mixca/d=1/m=4":     "bdc978ecbc365a2f",
		"mixca/d=2/m=1":     "c03c7c2da7055155",
		"mixca/d=2/m=4":     "3a3106159d189d15",
		"mixca/d=3/m=1":     "e52e517e4ba0cc9d",
		"mixca/d=3/m=4":     "ccb0b76fe5138175",
		"rule90/d=1/m=1":    "0dbfe657cd7fb427",
		"rule90/d=1/m=4":    "4ad71ee3fd04e927",
		"rule90/d=2/m=1":    "9669f7e2e35fd766",
		"rule90/d=2/m=4":    "369127c397558966",
		"rule90/d=3/m=1":    "7521db35ea4bc267",
		"rule90/d=3/m=4":    "a7c5ee0c81cbb767",
		"diffusion/d=1/m=1": "6d36dc2763bc4ef2",
		"diffusion/d=1/m=4": "0d1af11a16e7a4f2",
		"diffusion/d=2/m=1": "5984335b374906b3",
		"diffusion/d=2/m=4": "38d8223a9654dfb3",
		"diffusion/d=3/m=1": "f83d6c03251efd90",
		"diffusion/d=3/m=4": "add074ea4b8bad90",
	}
	const n, steps = 64, 16
	for _, gc := range guests {
		for d := 1; d <= 3; d++ {
			prog := AsNetwork{G: gc.g}
			switch d {
			case 2:
				prog.Side = 8
			case 3:
				prog.CubeSide = 4
			}
			for _, m := range []int{1, 4} {
				name := fmt.Sprintf("%s/d=%d/m=%d", gc.name, d, m)
				got := network.Digest(network.RunGuestPure(d, n, m, steps, prog))
				if want := golden[name]; got != want {
					t.Errorf("%s: digest %s, golden %s", name, got, want)
				}
			}
		}
	}
}
