package core

import (
	"reflect"
	"testing"
	"time"

	"booterscope/internal/flowstore"
	"booterscope/internal/takedown"
	"booterscope/internal/trafficgen"
)

// TestColumnarMatchesRow is the end-to-end differential golden for the
// columnar hot path: every replayed analysis — the single-pass takedown
// Analyze, the packet-size histogram, and the victim classification —
// must be byte-identical to the same analysis run serially over the
// in-memory records the archive was written from, at serial and
// fanned-out replay parallelism alike. The reference never touches a
// block decoder, so this is the guarantee that the block codec,
// predicate pushdown, lazy materialization, and columnar routing are
// pure plumbing: they may only change how fast records move, never
// which records move or what the stages compute from them.
func TestColumnarMatchesRow(t *testing.T) {
	cfg := trafficgen.Config{
		Start:    TakedownDate.Add(-15 * 24 * time.Hour),
		Days:     30,
		Takedown: TakedownDate,
		Seed:     7,
		Scale:    0.15,
	}
	study := &TakedownStudy{
		opts:     Options{Parallelism: 1},
		Scenario: trafficgen.NewScenario(cfg),
		Event:    takedown.FBITakedown,
	}
	kinds := []trafficgen.Kind{trafficgen.KindTier2, trafficgen.KindIXP}
	dir := t.TempDir()
	if err := study.WriteArchive(dir, flowstore.Options{NoSync: true}, kinds...); err != nil {
		t.Fatalf("write archive: %v", err)
	}
	replay, err := OpenReplay(dir)
	if err != nil {
		t.Fatalf("open replay: %v", err)
	}
	defer replay.Close()

	type result struct {
		analysis *takedown.Analysis
		fig2a    *PacketSizeDistribution
		fig2bc   *VantageVictims
	}
	for _, k := range kinds {
		// The serial in-memory reference.
		var want result
		if want.analysis, err = study.Analyze(k); err != nil {
			t.Fatalf("%v: reference analyze: %v", k, err)
		}
		if want.fig2bc, err = figure2bcSource(study.source(k), k, 1); err != nil {
			t.Fatalf("%v: reference figure2bc: %v", k, err)
		}
		if k == trafficgen.KindIXP {
			if want.fig2a, err = figure2aSource(study.source(k), 1); err != nil {
				t.Fatalf("reference figure2a: %v", err)
			}
			if want.fig2a.Histogram.Total() == 0 {
				t.Fatal("reference figure2a is empty")
			}
		}
		if len(want.analysis.Figure4) == 0 || len(want.fig2bc.Victims) == 0 {
			t.Fatalf("%v: reference run is degenerate", k)
		}
		for _, par := range []int{1, 4} {
			replay.Parallelism = par
			var got result
			if got.analysis, err = replay.Analyze(k); err != nil {
				t.Fatalf("%v: analyze (par=%d): %v", k, par, err)
			}
			if got.fig2bc, err = replay.Figure2bc(k); err != nil {
				t.Fatalf("%v: figure2bc (par=%d): %v", k, par, err)
			}
			if k == trafficgen.KindIXP {
				if got.fig2a, err = replay.Figure2a(); err != nil {
					t.Fatalf("figure2a (par=%d): %v", par, err)
				}
			}
			if !reflect.DeepEqual(want.analysis, got.analysis) {
				t.Errorf("%v: analysis diverges from the in-memory reference (par=%d)", k, par)
			}
			if !reflect.DeepEqual(want.fig2bc, got.fig2bc) {
				t.Errorf("%v: figure2bc diverges from the in-memory reference (par=%d)", k, par)
			}
			if !reflect.DeepEqual(want.fig2a, got.fig2a) {
				t.Errorf("%v: figure2a diverges from the in-memory reference (par=%d)", k, par)
			}
		}
	}
}
