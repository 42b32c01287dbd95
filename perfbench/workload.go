package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/device"
	"repro/internal/service/api"
)

// Workload names, as BENCHMARK.json and --workload spell them.
const (
	wPrice     = "price"
	wExplore   = "explore"
	wSimDeep   = "simulate-deep"
	wCoexplore = "coexplore"
)

var workloadNames = []string{wPrice, wExplore, wSimDeep, wCoexplore}

// kind is the endpoint a request goes to.
type kind int

const (
	kPRR kind = iota
	kBitstream
	kExplore
	kSimulate
)

// request is one generated costd request. Exactly one body pointer is set.
// repeat marks a request whose answer is already cached by an earlier
// request of the same sequence (an exact or permuted repeat).
type request struct {
	kind    kind
	repeat  bool
	prr     *api.PRRRequest
	bit     *api.BitstreamRequest
	explore *api.ExploreRequest
	sim     *api.SimulateRequest
}

// Request sizes. Each workload's main request class costs ten milliseconds
// or more: sub-millisecond requests measured the HTTP stack and the 2-core
// scheduler rather than the program, and on a shared host a few-millisecond
// stall of the CPU doubles a 5 ms request, which made p90 unsteady.
const (
	pricePRMs        = 1024 // PRMs per /v1/prr batch, the service's limit (about 20 ms)
	priceBitItems    = 1024 // organizations per /v1/bitstream batch
	explorePRMs      = 12   // PRMs per exploration
	exploreClasses   = 3    // signature classes per exploration
	simDeepDevice    = "XC6VLX75T"
	simDeepJobs      = 700
	simDeepGapUS     = 400
	simDeepExecUS    = 500
	simDeepLevels    = 4
	simDeepSnapEvery = 100 // completions per streamed snapshot
	coexDevice       = "XC6VLX75T"
	coexPRMs         = 6
	coexJobs         = 200
	coexGapUS        = 80
	coexExecUS       = 300
	coexLevels       = 3
)

// warmupSeedOffset shifts the seed of the warm-up sequence away from the
// timed one, so no warm-up request answers a timed one from the cache.
const warmupSeedOffset = 0x5eed_0000_0000

// exploreShares are the three signature classes' sizes as shares of the
// device's LUT capacity.
var exploreShares = [exploreClasses]float64{0.005, 0.01, 0.02}

// exploreDevices are the catalog parts explore rotates over: the four on
// which one of its explorations costs about the same (40-50 ms). On the
// other four it took 16-68 ms, and eight latency modes of 1/8 each put
// p90 on the edge of one of them.
var exploreDevices = pick("XC4VLX60", "XC5VLX110T", "XC6VLX240T", "XC7K325T")

func pick(names ...string) []device.Descriptor {
	var out []device.Descriptor
	for _, d := range catalog {
		if slices.Contains(names, d.Name) {
			out = append(out, d)
		}
	}
	return out
}

// rngFor returns the generator of request i of a sequence: every request is
// a pure function of (workload, seed, i), so the traced run and the output
// checks regenerate exactly the requests the timed run sent.
func rngFor(name string, seed uint64, i int) *rand.Rand {
	var h uint64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed^h, uint64(i)*0x9E3779B97F4A7C15+1))
}

// gen returns request i of workload name's sequence under seed.
func gen(name string, seed uint64, i int) request {
	r := rngFor(name, seed, i)
	switch name {
	case wPrice:
		return genPrice(seed, i, r)
	case wExplore:
		return genExplore(seed, i, r)
	case wSimDeep:
		return genSimDeep(r)
	case wCoexplore:
		return genCoexplore(r)
	}
	panic("perfbench: unknown workload " + name)
}

// catalog is the device list the rotating workloads cycle through, in the
// service's stable order.
var catalog = device.Descriptors()

// slot places request i in its block of eight: exactly one request per
// block is a repeat and, for price, one is a bitstream batch, at positions
// that rotate from block to block so no device loses more cold requests
// than another. Fixed shares keep the latency mix identical across seeds.
func slot(i int) (repeat, bitstream bool) {
	b, p := i/8, i%8
	return i > 0 && p == b%8, p == (b+4)%8
}

// genPrice: 3/4 cold /v1/prr batches, 1/8 /v1/bitstream batches, 1/8 exact
// repeats of an earlier request (LRU cache hits).
func genPrice(seed uint64, i int, r *rand.Rand) request {
	repeat, bitstream := slot(i)
	switch {
	case repeat:
		rep := gen(wPrice, seed, r.IntN(i))
		rep.repeat = true
		return rep
	case bitstream:
		d := catalog[i%len(catalog)]
		req := &api.BitstreamRequest{Device: d.Name, Items: make([]api.Organization, priceBitItems)}
		for k := range req.Items {
			req.Items[k] = randOrg(r, d)
		}
		return request{kind: kBitstream, bit: req}
	}
	d := catalog[i%len(catalog)]
	req := &api.PRRRequest{Device: d.Name, PRMs: make([]api.PRM, pricePRMs)}
	for k := range req.PRMs {
		req.PRMs[k] = api.PRM{Req: randReq(r, d, 0.002, 0.03)}
	}
	return request{kind: kPRR, prr: req}
}

// genExplore: front-only explorations of 12 PRMs drawn from 3 signature
// classes; 1/8 are shuffled repeats of an earlier request, which the
// service's canonical keys answer from its cache.
func genExplore(seed uint64, i int, r *rand.Rand) request {
	if repeat, _ := slot(i); repeat {
		rep := gen(wExplore, seed, r.IntN(i))
		prms := append([]api.PRM(nil), rep.explore.PRMs...)
		r.Shuffle(len(prms), func(a, b int) { prms[a], prms[b] = prms[b], prms[a] })
		cp := *rep.explore
		cp.PRMs = prms
		return request{kind: kExplore, repeat: true, explore: &cp}
	}
	// Class sizes sit at fixed shares of the device's LUT capacity with
	// +-20% jitter, and need no DSP or BRAM columns: every exploration then
	// has a feasible front and a similar amount of branch-and-bound work,
	// where freely drawn shapes mixed sub-millisecond all-infeasible
	// requests with 100 ms ones.
	d := exploreDevices[i%len(exploreDevices)]
	shapes := make([]api.Requirements, exploreClasses)
	for k, share := range exploreShares {
		share *= 0.8 + 0.4*r.Float64()
		shapes[k] = randReq(r, d, share, share)
		shapes[k].DSPs, shapes[k].BRAMs = 0, 0
	}
	// One engine worker: at the default (GOMAXPROCS = 2) a stall of either
	// CPU holds up the join of the two branch-and-bound workers, and on a
	// shared 2-vCPU host that made p90 too noisy to bound. The parallel
	// engine paths stay covered by coexplore, which runs at the default.
	req := &api.ExploreRequest{Device: d.Name, FrontOnly: true, PRMs: make([]api.PRM, explorePRMs),
		Options: api.ExploreOptions{Workers: 1}}
	for k := range req.PRMs {
		req.PRMs[k] = api.PRM{Name: fmt.Sprintf("P%d", k), Req: shapes[k%exploreClasses]}
	}
	r.Shuffle(len(req.PRMs), func(a, b int) { req.PRMs[a], req.PRMs[b] = req.PRMs[b], req.PRMs[a] })
	return request{kind: kExplore, explore: req}
}

// genSimDeep: one streamed single-platform run under the preemptive
// priority policy, overloaded so the ready queue grows into the hundreds.
func genSimDeep(r *rand.Rand) request {
	return request{kind: kSimulate, sim: &api.SimulateRequest{
		Device: simDeepDevice, SyntheticN: 4, Slots: 2, Policy: "priority", SnapshotEvery: simDeepSnapEvery,
		Mix: api.SimMix{
			Jobs: simDeepJobs, Seed: r.Uint64() | 1,
			MeanGapUS: simDeepGapUS, MeanExecUS: simDeepExecUS, PriorityLevels: simDeepLevels,
		},
	}}
}

// genCoexplore: one summary-only co-exploration of a 6-PRM synthetic set
// under every policy against a light job mix (the mix of the sim package's
// BenchmarkCoExplore).
func genCoexplore(r *rand.Rand) request {
	return request{kind: kSimulate, sim: &api.SimulateRequest{
		Device: coexDevice, SyntheticN: coexPRMs, CoExplore: true, SummaryOnly: true,
		Mix: api.SimMix{
			Jobs: coexJobs, Seed: r.Uint64() | 1,
			MeanGapUS: coexGapUS, MeanExecUS: coexExecUS, PriorityLevels: coexLevels,
		},
	}}
}

// randReq draws a valid requirement vector sized between lo and hi of the
// device's LUT capacity, with DSP and BRAM needs on about half the draws.
func randReq(r *rand.Rand, d device.Descriptor, lo, hi float64) api.Requirements {
	pairs := int(float64(d.LUTs) * (lo + (hi-lo)*r.Float64()))
	pairs = max(pairs, 16)
	req := api.Requirements{
		LUTFFPairs: pairs,
		LUTs:       pairs * (60 + r.IntN(40)) / 100,
		FFs:        pairs * (40 + r.IntN(55)) / 100,
	}
	if r.IntN(2) == 0 {
		req.DSPs = 1 + r.IntN(max(1, d.DSPs/24))
	}
	if r.IntN(2) == 0 {
		req.BRAMs = 1 + r.IntN(max(1, d.BRAMs/24))
	}
	return req
}

// randOrg draws a PRR organization that fits the device's row count.
func randOrg(r *rand.Rand, d device.Descriptor) api.Organization {
	o := api.Organization{H: 1 + r.IntN(d.Rows), WCLB: 1 + r.IntN(12)}
	if r.IntN(2) == 0 {
		o.WDSP = 1 + r.IntN(2)
	}
	if r.IntN(2) == 0 {
		o.WBRAM = 1 + r.IntN(2)
	}
	return o
}
