package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"bulktx/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPrototypeGolden pins the rendered Figure 11 and 12 tables byte for
// byte, so any change to how the prototype runs are built or charged
// shows up as a diff. Regenerate with `go test ./internal/experiments
// -run PrototypeGolden -update` after an intentional change.
func TestPrototypeGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		fig  func() (metrics.Table, error)
	}{
		{"fig11", Fig11},
		{"fig12", Fig12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, err := tc.fig()
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(tbl.Render())
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from %s (run with -update if intentional)\ngot:\n%s\nwant:\n%s",
					tc.name, golden, got, want)
			}
		})
	}
}
