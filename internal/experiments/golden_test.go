package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blobvfs/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// goldenScenarios renders the pool-scaffold scenarios at the sizes
// `vmdeploy -quick` uses (with its default -kill 8, -cycles 8 and
// -keep 2), table for table as vmdeploy prints them.
func goldenScenarios() map[string]func(Params) []*metrics.Table {
	return map[string]func(Params) []*metrics.Table{
		"flash": func(p Params) []*metrics.Table {
			return []*metrics.Table{FlashCrowdTable([]CrowdPoint{
				RunCrowd(p, FlashCrowd(64, false)), RunCrowd(p, FlashCrowd(64, true)),
			})}
		},
		"churn": func(p Params) []*metrics.Table {
			kept := RunChurn(p, ChurnConfig{Instances: 8, Cycles: 8, KeepLast: 2})
			base := RunChurn(p, ChurnConfig{Instances: 8, Cycles: 8})
			return []*metrics.Table{ChurnTable(kept), ChurnTable(base)}
		},
		"degraded": func(p Params) []*metrics.Table {
			return []*metrics.Table{DegradedTable([]CrowdPoint{
				RunCrowd(p, Degraded(64, 0)), RunCrowd(p, Degraded(64, 8)),
			})}
		},
		"crosszone": func(p Params) []*metrics.Table {
			var pts []CrowdPoint
			for _, sharing := range []bool{false, true} {
				for _, aware := range []bool{false, true} {
					pts = append(pts, RunCrowd(p, CrossZone(20, aware, sharing)))
				}
			}
			return []*metrics.Table{CrossZoneTable(pts)}
		},
		"multisnap": func(p Params) []*metrics.Table {
			pt := RunMultisnapshot(p, MultisnapshotConfig{Instances: 64})
			return []*metrics.Table{MultisnapshotTable([]MultisnapshotPoint{pt})}
		},
		"metaoutage": func(p Params) []*metrics.Table {
			return []*metrics.Table{MetaOutageTable([]CrowdPoint{
				RunCrowd(p, MetaOutage(64, 0, false)), RunCrowd(p, MetaOutage(64, 8, true)),
			})}
		},
	}
}

// TestGoldenTables pins the rendered tables of every scenario built on
// the shared crowd scaffold byte for byte. Refactors of that scaffold
// must leave these files untouched; regenerate them with
// `go test ./internal/experiments -run TestGoldenTables -update` only
// for a deliberate behaviour change.
func TestGoldenTables(t *testing.T) {
	p := Quick()
	p.MaxInstances = 24
	for name, render := range goldenScenarios() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			for _, tab := range render(p) {
				tab.Fprint(&buf)
				buf.WriteByte('\n')
			}
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s tables drifted from %s:\n got:\n%s\nwant:\n%s", name, path, buf.Bytes(), want)
			}
		})
	}
}
