package dse

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/icap"
)

// constrainedExplorer pairs ConstrainedDevice with the standard estimator.
func constrainedExplorer() *Explorer {
	return &Explorer{Device: ConstrainedDevice(), Estimator: icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}}
}

// TestExploreParetoMatchesFlat is the exact-equivalence property: on two
// devices, for synthetic workloads up to n=9, the branch-and-bound streaming
// front is element-for-element identical to Pareto(ExploreAll(prms)) — same
// points, same deterministic order — with dominance pruning off and on, and
// across split depths. Run under -race this also exercises the subtree
// workers sharing the run state.
func TestExploreParetoMatchesFlat(t *testing.T) {
	for _, devName := range []string{"XC6VLX75T", "XC5VLX110T"} {
		for _, n := range []int{1, 2, 5, 9} {
			prms := SyntheticPRMs(n)
			e := explorer(t, devName)
			want := Pareto(e.ExploreAll(prms))
			for _, opts := range []BBOptions{
				{},
				{DominancePrune: true},
				{DominancePrune: true, SplitDepth: 2},
				{SplitDepth: 4, Workers: 3},
			} {
				got, stats, err := e.ExploreParetoBB(context.Background(), prms, opts)
				if err != nil {
					t.Fatalf("%s n=%d opts=%+v: %v", devName, n, opts, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s n=%d opts=%+v: front differs\n got %d points: %+v\nwant %d points: %+v",
						devName, n, opts, len(got), got, len(want), want)
				}
				if total := stats.Evaluated + stats.PrunedFit + stats.PrunedDominated + stats.CollapsedSymmetry; total != stats.Partitions {
					t.Errorf("%s n=%d opts=%+v: evaluated %d + pruned %d+%d + collapsed %d != Bell(n) %d",
						devName, n, opts, stats.Evaluated, stats.PrunedFit, stats.PrunedDominated,
						stats.CollapsedSymmetry, stats.Partitions)
				}
			}
		}
	}
}

// TestExploreParetoMatchesFlatRandom repeats the equivalence property on
// randomized PRM sets, which include oversized (unplaceable) modules that
// drive the fit bound and infeasible partitions.
func TestExploreParetoMatchesFlatRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, devName := range []string{"XC5VLX110T", "XC6VLX75T"} {
		for trial := 0; trial < 4; trial++ {
			n := 3 + rng.Intn(4)
			prms := randomPRMs(rng, n)
			e := explorer(t, devName)
			want := Pareto(e.ExploreAll(prms))
			got, _, err := e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
			if err != nil {
				t.Fatalf("%s trial %d: %v", devName, trial, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trial %d n=%d: front differs\n got %+v\nwant %+v", devName, trial, n, got, want)
			}
		}
	}
}

// TestExploreParetoConstrained is the pruning scale check: on the
// constrained fabric the fit bound must skip more than half the partitions
// without evaluation, the front must still exactly match the flat engine,
// and the streaming engine's peak resident point count must stay at
// front-scale, not Bell(n)-scale.
func TestExploreParetoConstrained(t *testing.T) {
	n := 10
	prms := ConstrainedPRMs(n)
	e := constrainedExplorer()
	want := Pareto(e.ExploreAll(prms))

	got, stats, err := e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("constrained front differs:\n got %+v\nwant %+v", got, want)
	}
	if pruned := stats.PrunedFit + stats.PrunedDominated; pruned <= stats.Partitions/2 {
		t.Errorf("pruned %d of %d partitions; want > half skipped without evaluation", pruned, stats.Partitions)
	}
	if stats.MaxResident >= stats.Partitions/10 {
		t.Errorf("resident points peaked at %d for %d partitions; streaming should stay O(front)",
			stats.MaxResident, stats.Partitions)
	}
	if stats.MaxResident < int64(len(want)) {
		t.Errorf("resident peak %d below front size %d", stats.MaxResident, len(want))
	}
	t.Logf("constrained n=%d: %d partitions, %d evaluated, %d fit-pruned, %d dominance-pruned, %d pricings, front %d, resident peak %d",
		n, stats.Partitions, stats.Evaluated, stats.PrunedFit, stats.PrunedDominated,
		stats.GroupPricings, stats.FrontSize, stats.MaxResident)
}

// TestExploreBBCallbackMatchesExploreAll: with pruning disabled the callback
// engine delivers exactly the ExploreAll point multiset; with the fit bound
// on it delivers every feasible point (the bound only removes infeasible
// ones). Cross-subtree delivery order is unspecified, so compare sorted.
func TestExploreBBCallbackMatchesExploreAll(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := SyntheticPRMs(6)
	all := e.ExploreAll(prms)

	collect := func(opts BBOptions) []DesignPoint {
		var pts []DesignPoint
		stats, err := e.ExploreBB(context.Background(), prms, opts, func(dp DesignPoint) bool {
			pts = append(pts, dp)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(pts)) != stats.Evaluated {
			t.Fatalf("delivered %d points but stats.Evaluated = %d", len(pts), stats.Evaluated)
		}
		sort.Slice(pts, func(i, j int) bool { return Describe(prms, pts[i]) < Describe(prms, pts[j]) })
		return pts
	}

	unpruned := collect(BBOptions{DisableFitPrune: true})
	wantAll := append([]DesignPoint(nil), all...)
	sort.Slice(wantAll, func(i, j int) bool { return Describe(prms, wantAll[i]) < Describe(prms, wantAll[j]) })
	if !reflect.DeepEqual(unpruned, wantAll) {
		t.Errorf("unpruned callback points differ from ExploreAll (%d vs %d)", len(unpruned), len(wantAll))
	}

	pruned := collect(BBOptions{})
	var wantFeasible []DesignPoint
	for _, p := range all {
		if p.Feasible {
			wantFeasible = append(wantFeasible, p)
		}
	}
	var gotFeasible []DesignPoint
	for _, p := range pruned {
		if p.Feasible {
			gotFeasible = append(gotFeasible, p)
		}
	}
	sort.Slice(wantFeasible, func(i, j int) bool { return Describe(prms, wantFeasible[i]) < Describe(prms, wantFeasible[j]) })
	if !reflect.DeepEqual(gotFeasible, wantFeasible) {
		t.Errorf("fit-pruned callback lost feasible points (%d vs %d)", len(gotFeasible), len(wantFeasible))
	}
}

// TestExploreBBEarlyStop: returning false from visit halts the exploration
// promptly with no error.
func TestExploreBBEarlyStop(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := SyntheticPRMs(8)
	seen := 0
	stats, err := e.ExploreBB(context.Background(), prms, BBOptions{}, func(DesignPoint) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 10 {
		t.Fatalf("visit called %d times, early-stop threshold never reached", seen)
	}
	if stats.Evaluated >= stats.Partitions {
		t.Errorf("early stop evaluated all %d partitions", stats.Partitions)
	}
}

// TestExploreBBCancel: a cancelled context aborts with its error and no
// front.
func TestExploreBBCancel(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := SyntheticPRMs(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	front, _, err := e.ExploreParetoBB(ctx, prms, BBOptions{})
	if err == nil {
		t.Fatal("cancelled exploration returned no error")
	}
	if front != nil {
		t.Errorf("cancelled exploration returned %d front points", len(front))
	}
}

// TestExploreParetoBBPaperPRMs: the paper's three PRMs produce the flat
// oracle's front through the default options cmd/dse and costd use.
func TestExploreParetoBBPaperPRMs(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := paperPRMs(t, "XC6VLX75T")
	want := Pareto(e.ExploreAll(prms))
	got, _, err := e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExploreParetoBB = %+v, want %+v", got, want)
	}
}

// TestExploreBBEmpty: no PRMs yields no front, no points and no error.
func TestExploreBBEmpty(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	front, _, err := e.ExploreParetoBB(context.Background(), nil, BBOptions{})
	if err != nil || front != nil {
		t.Errorf("empty exploration = (%v, %v), want (nil, nil)", front, err)
	}
	stats, err := e.ExploreBB(context.Background(), nil, BBOptions{}, func(DesignPoint) bool {
		t.Error("visit called for an empty PRM set")
		return true
	})
	if err != nil || stats.Partitions != 0 {
		t.Errorf("empty callback exploration = (%+v, %v), want zero stats and no error", stats, err)
	}
}

// waitForGoroutines polls until the goroutine count drops back to at most
// base (with a little slack for runtime helpers), failing after the
// deadline.
func waitForGoroutines(t *testing.T, base int, deadline time.Duration) {
	t.Helper()
	const slack = 2
	end := time.Now().Add(deadline)
	for {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		if time.Now().After(end) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not return to baseline %d (now %d):\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestExploreBBNoGoroutineLeakOnCancel proves the subtree worker pool exits
// promptly when the context is cancelled in the middle of a walk: the cancel
// fires from inside the visit callback once points are streaming, so every
// worker is deep in a subtree, and each must unwind and return.
func TestExploreBBNoGoroutineLeakOnCancel(t *testing.T) {
	e := explorer(t, "XC6VLX240T")
	// Bell(11) = 678570 unpruned partitions: far more than the walk can
	// price before the cancel lands.
	prms := SyntheticPRMs(11)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	errc := make(chan error, 1)
	go func() {
		_, err := e.ExploreBB(ctx, prms, BBOptions{Workers: 4, DisableFitPrune: true}, func(DesignPoint) bool {
			if seen.Add(1) == 100 {
				cancel()
			}
			return true
		})
		errc <- err
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-walk cancel returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exploration did not return after cancel")
	}
	if got := seen.Load(); got >= int64(bellNumber(len(prms))) {
		t.Errorf("visited %d points: the cancel did not stop the walk", got)
	}
	waitForGoroutines(t, base, 5*time.Second)
}

// TestExploreParetoBBNoGoroutineLeakOnCancel: the Pareto entry point has no
// callback to cancel from, so the cancel fires once its workers are
// running; the run returns the context's error, no front, and no worker
// left behind, long before the full walk could have finished.
func TestExploreParetoBBNoGoroutineLeakOnCancel(t *testing.T) {
	e := explorer(t, "XC6VLX240T")
	// Bell(13) ≈ 27.6M partitions with every shortcut off: the full walk
	// takes far longer than the 10 s budget below, so only a prompt cancel
	// passes.
	prms := SyntheticPRMs(13)
	opts := BBOptions{Workers: 4, DisableFitPrune: true, Symmetry: SymmetryOff, Memo: MemoOff}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		front []DesignPoint
		err   error
	}
	resc := make(chan result, 1)
	go func() {
		front, _, err := e.ExploreParetoBB(ctx, prms, opts)
		resc <- result{front, err}
	}()
	for end := time.Now().Add(10 * time.Second); metWorkersActive.Value() == 0 && time.Now().Before(end); {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	select {
	case r := <-resc:
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("mid-walk cancel returned %v, want context.Canceled", r.err)
		}
		if r.front != nil {
			t.Errorf("cancelled exploration returned %d front points", len(r.front))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exploration did not return after cancel")
	}
	waitForGoroutines(t, base, 5*time.Second)
}

// TestExploreBBNoGoroutineLeakOnCompletion: the happy path leaves no
// workers behind either.
func TestExploreBBNoGoroutineLeakOnCompletion(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	base := runtime.NumGoroutine()
	if _, _, err := e.ExploreParetoBB(context.Background(), SyntheticPRMs(5), BBOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base, 5*time.Second)
}

// TestParetoOfStreamedPointsMatchesBB is the streamed-explore path: points
// from a multi-worker ExploreBB arrive in no particular order, yet
// ExpandSymmetric(Pareto(points)) must equal the ExploreParetoBB front
// element for element, exact objective ties included. Pareto breaks those
// ties by partition rank, not by arrival order; each collected set is also
// fed reversed, so a tie order that leaks the input order fails
// deterministically rather than only under an unlucky schedule.
func TestParetoOfStreamedPointsMatchesBB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := BBOptions{Workers: 4, DominancePrune: true}
	for _, devName := range []string{"XC6VLX75T", "XC6VLX240T"} {
		e := explorer(t, devName)
		for trial := 0; trial < 12; trial++ {
			n := 6 + rng.Intn(3)
			prms := randomPRMs(rng, n)
			switch trial % 3 {
			case 1:
				prms = SyntheticPRMs(n)
			case 2:
				prms = DuplicatePRMs(n, 2+rng.Intn(2))
			}
			want, _, err := e.ExploreParetoBB(context.Background(), prms, opts)
			if err != nil {
				t.Fatal(err)
			}
			var points []DesignPoint
			if _, err := e.ExploreBB(context.Background(), prms, opts, func(dp DesignPoint) bool {
				points = append(points, dp)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			reversed := make([]DesignPoint, len(points))
			for i, p := range points {
				reversed[len(points)-1-i] = p
			}
			for _, in := range [][]DesignPoint{points, reversed} {
				if got := ExpandSymmetric(prms, Pareto(in)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d n=%d: streamed front differs from ExploreParetoBB\n got %+v\nwant %+v",
						devName, trial, n, got, want)
				}
			}
		}
	}
}

// TestParetoFrontStreaming feeds points in adversarial orders and checks the
// online merger always matches the batch filter, including duplicate
// non-dominated points and later points evicting earlier ones.
func TestParetoFrontStreaming(t *testing.T) {
	e := explorer(t, "XC6VLX75T")
	prms := SyntheticPRMs(6)
	all := e.ExploreAll(prms)
	want := Pareto(all)

	// Sequential order, as one merger.
	f := &ParetoFront{}
	for i, p := range all {
		if p.Feasible {
			f.Add(p, uint64(i))
		}
	}
	if got := f.Points(); !reflect.DeepEqual(got, want) {
		t.Errorf("streamed front differs from batch Pareto (%d vs %d points)", len(got), len(want))
	}

	// Split at arbitrary boundaries and merge in order.
	for _, cut := range []int{1, 7, len(all) / 2, len(all) - 3} {
		a, b := &ParetoFront{}, &ParetoFront{}
		for i, p := range all {
			if !p.Feasible {
				continue
			}
			if i < cut {
				a.Add(p, uint64(i))
			} else {
				b.Add(p, uint64(i))
			}
		}
		a.Merge(b)
		if got := a.Points(); !reflect.DeepEqual(got, want) {
			t.Errorf("cut %d: merged front differs from batch Pareto", cut)
		}
	}
}

// TestBBStatsMetricsFlow: one constrained run moves the engine-wide
// branch-and-bound counters.
func TestBBStatsMetricsFlow(t *testing.T) {
	e := constrainedExplorer()
	prms := ConstrainedPRMs(8)
	before := metBBPrunedFit.Value()
	_, stats, err := e.ExploreParetoBB(context.Background(), prms, BBOptions{DominancePrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PrunedFit == 0 {
		t.Fatal("constrained workload produced no fit prunes")
	}
	if got := metBBPrunedFit.Value() - before; got != stats.PrunedFit {
		t.Errorf("registry pruned-fit delta %d != stats %d", got, stats.PrunedFit)
	}
}
