package experiments

import "testing"

func BenchmarkStencilSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Run([]string{"stencil"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}
