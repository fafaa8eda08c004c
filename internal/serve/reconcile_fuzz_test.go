package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fadewich/internal/engine"
	"fadewich/internal/stream"
)

// fuzzSpecs decodes a fuzz input into a sequence of tagged-worker
// specs over a small alphabet, so renames, gid swaps, config changes
// and removals all recur. Each spec is one count byte (0–4 offices)
// and two bytes per office: the first picks the name (a–d) and one of
// four configs (2 or 3 sensors, default or 4.5 md_tau), the second the
// gid (0–3, or 4 for none, which a tagged worker refuses). Duplicate
// names and gids pass through, for resolveSpec to refuse.
func fuzzSpecs(data []byte) []string {
	var specs []string
	for len(data) > 0 && len(specs) < 8 {
		n := int(data[0]) % 5
		data = data[1:]
		var offices []string
		for ; n > 0 && len(data) >= 2; n-- {
			pick, gid := data[0], int(data[1])%5
			data = data[2:]
			o := fmt.Sprintf(`{"name": %q, "sensors": %d`, string(rune('a'+pick%4)), 2+(pick>>2)%2)
			if (pick>>3)%2 == 1 {
				o += `, "md_tau": 4.5`
			}
			if gid < 4 {
				o += fmt.Sprintf(`, "gid": %d`, gid)
			}
			offices = append(offices, o+"}")
		}
		specs = append(specs, fmt.Sprintf(`{"defaults": {"layout": "small"}, "offices": [%s]}`, strings.Join(offices, ", ")))
	}
	return specs
}

// FuzzReconcile drives a tagged worker's reconciler, in process over an
// Epochs ingestor with no sink, through random spec sequences. After
// every Reconcile either it failed and Live is what it was, or Live is
// the spec: the same names, each under its gid as its ID with its
// config, and the ingestor's members are exactly those IDs.
func FuzzReconcile(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 1})                // a:0 b:1
	f.Add([]byte{2, 0, 0, 1, 1, 2, 0, 1, 1, 0}) // a:0 b:1 → a:1 b:0, a gid swap
	f.Add([]byte{1, 0, 0, 1, 1, 0})             // a:0 → b:0, a rename onto a freed gid
	f.Add([]byte{1, 0, 2, 1, 4, 2, 1, 8, 2})    // a:2 → a config change (3 sensors), then md_tau
	f.Add([]byte{3, 0, 0, 1, 1, 2, 2, 0})       // a:0 b:1 c:2 → removing all
	f.Add([]byte{2, 0, 0, 1, 0, 1, 0, 4})       // duplicate gids, then a missing gid
	f.Add([]byte{2, 0, 0, 0, 1, 1, 0, 0})       // duplicate names, then a:0
	f.Fuzz(func(t *testing.T, data []byte) {
		fleet, err := engine.NewFleet(engine.FleetConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ing, err := stream.NewIngestor(fleet, stream.Config{Epochs: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ing.Close()
		r := newReconciler(ing, true)
		for i, raw := range fuzzSpecs(data) {
			before := r.Live()
			if err := r.Reconcile([]byte(raw)); err != nil {
				if got := r.Live(); !reflect.DeepEqual(got, before) {
					t.Fatalf("spec %d %s failed (%v) but changed Live: %+v → %+v", i, raw, err, before, got)
				}
				continue
			}
			resolved, err := resolveSpec([]byte(raw), true)
			if err != nil {
				t.Fatalf("spec %d %s applied, but resolveSpec refuses it: %v", i, raw, err)
			}
			want := make([]LiveOffice, 0, len(resolved))
			for _, ro := range resolved {
				want = append(want, LiveOffice{Name: ro.Name, ID: ro.GID, Config: ro.Config, GID: ro.GID})
			}
			got := r.Live()
			byName := func(l []LiveOffice) map[string]LiveOffice {
				m := make(map[string]LiveOffice, len(l))
				for _, o := range l {
					m[o.Name] = o
				}
				return m
			}
			if !reflect.DeepEqual(byName(got), byName(want)) {
				t.Fatalf("spec %d %s applied, but Live is %+v", i, raw, got)
			}
			var members []int
			for _, o := range ing.Stats().Offices {
				members = append(members, o.Office)
			}
			var ids []int
			for _, o := range got {
				ids = append(ids, o.ID)
			}
			if !reflect.DeepEqual(members, ids) {
				t.Fatalf("spec %d %s: the ingestor runs offices %v, Live names %v", i, raw, members, ids)
			}
		}
	})
}
