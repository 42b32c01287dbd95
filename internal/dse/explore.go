package dse

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/floorplan"
	"repro/internal/icap"
)

// PRM names one module to place in the exploration.
type PRM struct {
	Name string
	Req  core.Requirements
}

// DesignPoint is one PR partitioning: a grouping of PRMs onto shared PRRs,
// evaluated entirely with the paper's cost models.
type DesignPoint struct {
	// Groups lists PRM indexes per PRR (a set partition of the PRMs).
	Groups [][]int
	// Feasible is false when some group's merged PRR has no window or the
	// groups cannot be placed disjointly.
	Feasible bool
	// Infeasibility carries the reason when Feasible is false.
	Infeasibility string

	// TotalTiles is the summed PRR_size over groups (area cost).
	TotalTiles int
	// MaxBitstreamBytes is the largest partial bitstream any reconfiguration
	// moves (latency cost).
	MaxBitstreamBytes int
	// TotalBitstreamBytes sums each group's bitstream (storage cost).
	TotalBitstreamBytes int
	// WorstReconfig is the estimator's time for the largest bitstream.
	WorstReconfig time.Duration
	// MinRU is the worst per-PRM CLB utilization across shared PRRs
	// (fragmentation cost; 0-100).
	MinRU float64
}

// Explorer evaluates PR partitionings on one device.
type Explorer struct {
	Device    *device.Device
	Estimator icap.Estimator
}

// Evaluate prices one partitioning with the cost models. Groups are priced
// in order; each group's PRR must avoid the regions placed for the groups
// before it.
func (e *Explorer) Evaluate(prms []PRM, groups [][]int) DesignPoint {
	dp := DesignPoint{Groups: groups, Feasible: true, MinRU: 100}
	bit := core.NewBitstreamModel(e.Device.Params)
	placed := make([]floorplan.Region, 0, len(groups))
	for _, g := range groups {
		ev := e.priceGroup(prms, g, placed, bit)
		if !ev.feasible {
			dp.Feasible = false
			dp.Infeasibility = ev.errMsg
			return dp
		}
		placed = append(placed, ev.region)
		dp.TotalTiles += ev.tiles
		dp.TotalBitstreamBytes += ev.bytes
		if ev.bytes > dp.MaxBitstreamBytes {
			dp.MaxBitstreamBytes = ev.bytes
		}
		if ev.minCLB < dp.MinRU {
			dp.MinRU = ev.minCLB
		}
	}
	dp.WorstReconfig = e.Estimator.Estimate(dp.MaxBitstreamBytes)
	return dp
}

// groupEval is the outcome of pricing one PRM group against an avoid-set:
// everything a design point needs from core.PRRModel.EstimateShared plus
// core.BitstreamModel.SizeBytes.
type groupEval struct {
	feasible bool
	errMsg   string
	region   floorplan.Region
	tiles    int
	bytes    int
	minCLB   float64
}

// priceGroup sizes one shared PRR for the PRM group against the already-
// placed regions and reduces the model outputs to what a design point needs.
func (e *Explorer) priceGroup(prms []PRM, g []int, placed []floorplan.Region, bit core.BitstreamModel) groupEval {
	reqs := make([]core.Requirements, len(g))
	for i, idx := range g {
		reqs[i] = prms[idx].Req
	}
	m := &core.PRRModel{Device: e.Device, Avoid: placed}
	shared, err := m.EstimateShared(reqs)
	if err != nil {
		return groupEval{errMsg: err.Error()}
	}
	ev := groupEval{
		feasible: true,
		region:   shared.Org.Region,
		tiles:    shared.Org.Size(),
		bytes:    bit.SizeBytes(shared.Org),
		minCLB:   100,
	}
	for _, ru := range shared.SharedRU {
		if ru.CLB < ev.minCLB {
			ev.minCLB = ru.CLB
		}
	}
	return ev
}

// ExploreAll enumerates every set partition of the PRMs (Bell(n) points; n
// is small in PR floorplanning practice) and evaluates each sequentially, in
// enumeration order. It is the uncached oracle the branch-and-bound engine is
// tested against, and the full point table for small n.
func (e *Explorer) ExploreAll(prms []PRM) []DesignPoint {
	var points []DesignPoint
	forEachPartitionRGS(len(prms), func(_ int, rgs []int) bool {
		points = append(points, e.Evaluate(prms, decodeGroups(rgs)))
		return true
	})
	return points
}

// forEachPartition enumerates set partitions of {0..n-1} via restricted
// growth strings. The groups slice is only valid during the visit.
func forEachPartition(n int, visit func([][]int)) {
	forEachPartitionRGS(n, func(_ int, rgs []int) bool {
		visit(decodeGroups(rgs))
		return true
	})
}

// forEachPartitionRGS enumerates the restricted growth strings of length n
// in lexicographic order, calling visit with each partition's enumeration
// index and its RGS (valid only during the visit). Returning false from
// visit stops the enumeration.
func forEachPartitionRGS(n int, visit func(index int, rgs []int) bool) {
	if n == 0 {
		return
	}
	rgs := make([]int, n)
	index := 0
	var rec func(i, maxUsed int) bool
	rec = func(i, maxUsed int) bool {
		if i == n {
			ok := visit(index, rgs)
			index++
			return ok
		}
		for g := 0; g <= maxUsed+1; g++ {
			rgs[i] = g
			next := maxUsed
			if g > maxUsed {
				next = g
			}
			if !rec(i+1, next) {
				return false
			}
		}
		return true
	}
	rec(0, -1)
}

// bellNumber returns Bell(n), the number of set partitions of n elements,
// via the Bell triangle. Exact in int64 range through n = 25; enumeration
// is intractable long before that.
func bellNumber(n int) int {
	if n == 0 {
		return 1
	}
	row := []int{1}
	for i := 1; i < n; i++ {
		next := make([]int, len(row)+1)
		next[0] = row[len(row)-1]
		for j := range row {
			next[j+1] = next[j] + row[j]
		}
		row = next
	}
	return row[len(row)-1]
}

// decodeGroups converts a restricted growth string into freshly allocated
// groups, ordered by first appearance with members ascending. All groups
// share one backing array sized up front, so the decode costs three
// allocations regardless of the group count.
func decodeGroups(rgs []int) [][]int {
	k := 0
	for _, g := range rgs {
		if g+1 > k {
			k = g + 1
		}
	}
	sizes := make([]int, k)
	for _, g := range rgs {
		sizes[g]++
	}
	groups := make([][]int, k)
	backing := make([]int, len(rgs))
	off := 0
	for g, sz := range sizes {
		groups[g] = backing[off : off : off+sz]
		off += sz
	}
	for idx, g := range rgs {
		groups[g] = append(groups[g], idx)
	}
	return groups
}

// Pareto returns the feasible points not dominated on (TotalTiles,
// WorstReconfig, -MinRU): smaller area, faster worst-case reconfiguration
// and lower fragmentation. The front is sorted by TotalTiles with
// deterministic tie-breaks (WorstReconfig ascending, then MinRU descending,
// then the partition's enumeration rank), so the output depends only on the
// set of points, not on the order they arrive in: ExploreAll's points, which
// are already in rank order, and the same points streamed from concurrent
// subtree workers yield the identical front. The filter is the streaming
// ParetoFront, O(n·front).
func Pareto(points []DesignPoint) []DesignPoint {
	n := 0
	for _, p := range points {
		for _, g := range p.Groups {
			for _, m := range g {
				n = max(n, m+1)
			}
		}
	}
	ext := newExtTable(n)
	rgs := make([]int, n)
	var label []int
	var f ParetoFront
	for _, p := range points {
		if p.Feasible {
			var rank uint64
			rank, label = partitionRank(ext, p.Groups, rgs, label)
			f.Add(p, rank)
		}
	}
	return f.Points()
}

// partitionRank returns the position of the set partition that groups
// describes in forEachPartitionRGS's enumeration of len(rgs) elements (see
// rgsRank). Neither group nor member order matters: labels are assigned by
// first appearance in element order, as decodeGroups emits them, and an
// element no group names counts as a singleton. rgs is caller-owned scratch;
// label is grown as needed and returned for reuse.
func partitionRank(ext extTable, groups [][]int, rgs, label []int) (uint64, []int) {
	for i := range rgs {
		rgs[i] = -1
	}
	label = label[:0]
	for g, members := range groups {
		label = append(label, -1)
		for _, m := range members {
			rgs[m] = g
		}
	}
	next := 0
	for i, g := range rgs {
		switch {
		case g < 0:
			rgs[i] = next
			next++
		case label[g] < 0:
			label[g] = next
			rgs[i] = next
			next++
		default:
			rgs[i] = label[g]
		}
	}
	return rgsRank(ext, rgs), label
}

// Describe renders a design point's grouping like "{FIR,MIPS}{SDRAM}".
func Describe(prms []PRM, dp DesignPoint) string {
	var b strings.Builder
	for _, g := range dp.Groups {
		b.WriteByte('{')
		for i, idx := range g {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(prms[idx].Name)
		}
		b.WriteByte('}')
	}
	if !dp.Feasible {
		b.WriteString(" (infeasible)")
	}
	return b.String()
}

// Productivity compares cost-model exploration against the vendor flow: the
// measured model time for evaluating all points versus the tool-time model's
// estimate of implementing each PRM once per design point.
type Productivity struct {
	Points        int
	ModelTime     time.Duration // measured
	FlowTime      time.Duration // estimated via ToolTimeModel
	SpeedupFactor float64
}

// String renders the productivity summary.
func (p Productivity) String() string {
	return fmt.Sprintf("%d design points: cost models %v vs full flow ~%v (%.0fx)",
		p.Points, p.ModelTime, p.FlowTime, p.SpeedupFactor)
}
