package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/floorplan"
	"repro/internal/icap"
	"repro/internal/obs"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// estimator is the reconfiguration-time model costd prices with by default.
var estimator icap.Estimator = icap.SizeModel{Port: icap.ICAP32, Media: icap.MediaDDRSDRAM}

// simEvents is the simulator's process-wide event counter; its delta around
// one sim.Run is that run's event count when runs happen one at a time.
var simEvents = obs.Default().Counter("sim_events_total", "discrete events processed across simulation runs")

// digest hashes a response as the sequence of its NDJSON lines (one line for
// the whole-body endpoints), each re-marshaled from its decoded api value, so
// a response read over HTTP and one built in-process hash alike exactly when
// they carry the same values.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(v any) error {
	switch e := v.(type) {
	case *api.ExploreEvent:
		if e.Done != nil {
			done := *e.Done
			done.Stats = stableStats(done.Stats)
			v = &api.ExploreEvent{Done: &done}
		}
	case *api.SimEvent:
		if e.Done != nil && e.Done.Stats != nil {
			done := *e.Done
			stats := stableStats(*done.Stats)
			done.Stats = &stats
			v = &api.SimEvent{Done: &done}
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
	return nil
}

// stableStats drops the memo hit/miss split, which depends on how the
// branch-and-bound workers interleave; their sum is GroupPricings, which
// stays in the digest with every other engine count.
func stableStats(s api.ExploreStats) api.ExploreStats {
	s.MemoHits, s.MemoMisses = 0, 0
	return s
}

func (d digest) sum() (s [32]byte) {
	copy(s[:], d.h.Sum(nil))
	return s
}

// layerStats are the exact per-request counts the engine layers report.
type layerStats struct {
	repeat   bool
	bb       dse.BBStats
	maxReady int
	events   int64
	sim      *sim.Result
	replays  int
}

// evaluate computes request q's response in-process with the same public
// functions costd calls, mirroring the handlers' wire conversion, and
// returns its digest. With a tracer it also records a span around every
// layer call (request decode and validation, engine, response encode, and
// the client-side decode); with nil it only computes the expected answer.
func evaluate(ctx context.Context, q request, tr *tracer) ([32]byte, layerStats, error) {
	st := layerStats{repeat: q.repeat}
	d := newDigest()
	var err error
	switch q.kind {
	case kPRR:
		err = evalPRR(q.prr, tr, d)
	case kBitstream:
		err = evalBitstream(q.bit, tr, d)
	case kExplore:
		err = evalExplore(ctx, q.explore, tr, d, &st)
	case kSimulate:
		if q.sim.CoExplore {
			err = evalCoexplore(ctx, q.sim, tr, d, &st)
		} else {
			err = evalSimulate(ctx, q.sim, tr, d, &st)
		}
	}
	return d.sum(), st, err
}

// decodeValidate times the service's request path before any engine runs:
// JSON decode of the request body (marshaled from in, untimed, as the client
// sends it) into a fresh value, then validation and the canonical cache key.
// Untraced, it only validates.
func decodeValidate[T any, P interface {
	*T
	Validate() error
}](endpoint string, in P, tr *tracer) error {
	if tr == nil {
		return in.Validate()
	}
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	sp := tr.begin("api.decode")
	var dec T
	err = json.Unmarshal(body, &dec)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	sp = tr.begin("api.validate_key")
	err = P(&dec).Validate()
	if er, ok := any(&dec).(*api.ExploreRequest); ok {
		er = er.Canonicalized()
		_ = api.CanonicalKey(endpoint, er)
	} else {
		_ = api.CanonicalKey(endpoint, &dec)
	}
	tr.end(sp, 1)
	return err
}

// encodeDecode times the response's trip back: the service's JSON encode
// of the response value and the client's decode of those bytes into a
// fresh api value.
func encodeDecode[T any](resp *T, tr *tracer) error {
	if tr == nil {
		return nil
	}
	sp := tr.begin("api.encode")
	body, err := json.Marshal(resp)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	sp = tr.begin("client.decode")
	var out T
	err = json.Unmarshal(body, &out)
	tr.end(sp, 1)
	return err
}

func evalPRR(req *api.PRRRequest, tr *tracer, d digest) error {
	if err := decodeValidate("prr", req, tr); err != nil {
		return err
	}
	dev, err := device.Lookup(req.Device)
	if err != nil {
		return err
	}
	m := core.NewPRRModel(dev)
	results := make([]core.Result, len(req.PRMs))
	errs := make([]error, len(req.PRMs))
	sp := tr.begin("core.estimate")
	for i, prm := range req.PRMs {
		results[i], errs[i] = m.Estimate(prm.Req.Core())
	}
	tr.end(sp, len(req.PRMs))
	if tr != nil {
		// FindWindow is not on the request path (Estimate runs its own
		// search); it is timed here on each result's need as a layer probe.
		n := 0
		sp = tr.begin("floorplan.find_window")
		for i := range results {
			if errs[i] == nil {
				floorplan.FindWindow(&dev.Fabric, results[i].Org.H, results[i].Org.Need())
				n++
			}
		}
		tr.end(sp, n)
	}
	resp := api.PRRResponse{Device: dev.Name, Results: make([]api.PRRResult, len(req.PRMs))}
	for i, prm := range req.PRMs {
		out := &resp.Results[i]
		out.Name = prm.Name
		if errs[i] != nil {
			out.Error = errs[i].Error()
			continue
		}
		res := results[i]
		out.OK = true
		out.Org = wireOrg(res.Org)
		out.Avail = &api.Availability{
			CLBs: res.Avail.CLBs, FFs: res.Avail.FFs, LUTs: res.Avail.LUTs,
			DSPs: res.Avail.DSPs, BRAMs: res.Avail.BRAMs,
		}
		out.RU = &api.Utilization{
			CLB: res.RU.CLB, FF: res.RU.FF, LUT: res.RU.LUT,
			DSP: res.RU.DSP, BRAM: res.RU.BRAM,
		}
		out.SizeTiles = res.Org.Size()
	}
	if err := encodeDecode(&resp, tr); err != nil {
		return err
	}
	return d.add(&resp)
}

func evalBitstream(req *api.BitstreamRequest, tr *tracer, d digest) error {
	if err := decodeValidate("bitstream", req, tr); err != nil {
		return err
	}
	dev, err := device.Lookup(req.Device)
	if err != nil {
		return err
	}
	bit := core.NewBitstreamModel(dev.Params)
	sizes := make([]int, len(req.Items))
	sp := tr.begin("core.size_bytes")
	for i, item := range req.Items {
		sizes[i] = bit.SizeBytes(item.Core())
	}
	tr.end(sp, len(req.Items))
	resp := api.BitstreamResponse{Device: dev.Name, Results: make([]api.BitstreamResult, len(req.Items))}
	for i, item := range req.Items {
		out := &resp.Results[i]
		org := item.Core()
		if org.H <= 0 || org.W() <= 0 {
			out.Error = fmt.Sprintf("item %d: organization needs h >= 1 and at least one column", i)
			continue
		}
		out.OK = true
		out.SizeWords = bit.SizeWords(org)
		out.SizeBytes = sizes[i]
		out.ConfigWordsPerRow = bit.ConfigWordsPerRow(org)
		out.BRAMInitWordsPerRow = bit.BRAMInitWordsPerRow(org)
		out.ReconfigNS = estimator.Estimate(out.SizeBytes).Nanoseconds()
	}
	if err := encodeDecode(&resp, tr); err != nil {
		return err
	}
	return d.add(&resp)
}

func evalExplore(ctx context.Context, raw *api.ExploreRequest, tr *tracer, d digest, st *layerStats) error {
	if err := decodeValidate("explore", raw, tr); err != nil {
		return err
	}
	dev, err := device.Lookup(raw.Device)
	if err != nil {
		return err
	}
	req := raw.Canonicalized()
	prms := make([]dse.PRM, len(req.PRMs))
	for i, p := range req.PRMs {
		prms[i] = dse.PRM{Name: p.Name, Req: p.Req.Core()}
	}
	e := &dse.Explorer{Device: dev, Estimator: estimator}
	sp := tr.begin("dse.explore")
	front, stats, err := e.ExploreParetoBB(ctx, prms, bbOptions(req.Options))
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	// ExploreParetoBB returns the expanded front; expanding it again must be
	// the identity, which makes the check cover ExpandSymmetric too.
	sp = tr.begin("dse.expand")
	again := dse.ExpandSymmetric(prms, front)
	tr.end(sp, 1)
	if len(again) != len(front) {
		return fmt.Errorf("ExpandSymmetric changed a %d-point front to %d points", len(front), len(again))
	}
	st.bb = stats
	done := api.ExploreDone{Front: make([]api.DesignPoint, len(again)), Stats: wireStats(stats)}
	done.Stats.FrontSize = stats.FrontSize
	for i, dp := range again {
		done.Front[i] = *wirePoint(names(req.PRMs), dp)
	}
	ev := api.ExploreEvent{Done: &done}
	if err := encodeDecode(&ev, tr); err != nil {
		return err
	}
	return d.add(&ev)
}

func evalSimulate(ctx context.Context, req *api.SimulateRequest, tr *tracer, d digest, st *layerStats) error {
	if err := decodeValidate("simulate", req, tr); err != nil {
		return err
	}
	dev, err := device.Lookup(req.Device)
	if err != nil {
		return err
	}
	specs, _ := simSpecs(req)
	mix := simMix(req)
	sp := tr.begin("sim.generate")
	jobs, err := mix.Generate(len(specs))
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	slots := req.Slots
	if slots == 0 {
		slots = 2
	}
	sp = tr.begin("sim.build")
	plat, err := sim.BuildShared(dev, specs, slots)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	pol, err := sim.PolicyByName(req.Policy)
	if err != nil {
		return err
	}
	snapEvery := req.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = max(mix.Jobs/20, 1)
	}
	var lines []api.SimEvent
	events := simEvents.Value()
	sp = tr.begin("sim.run")
	res, err := sim.Run(ctx, sim.Config{
		Platform: plat, Policy: pol, Estimator: estimator, SnapshotEvery: snapEvery,
	}, jobs, func(sn sim.Snapshot) bool {
		if len(lines) == 0 {
			tr.mark("sim.first_snapshot", sp)
		}
		st.maxReady = max(st.maxReady, sn.Ready)
		lines = append(lines, api.SimEvent{Snapshot: wireSnapshot(0, pol.Name(), sn)})
		return true
	})
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	st.events = simEvents.Value() - events
	st.sim = &res
	done := &api.SimDone{Metrics: wireMetrics(res), PerSlot: make([]api.SimSlot, len(res.PerSlot))}
	for i, sl := range res.PerSlot {
		done.PerSlot[i] = api.SimSlot{Name: sl.Name, BusyNS: sl.BusyNS, Reconfigs: sl.Reconfigs, ICAPNS: sl.ICAPNS}
	}
	lines = append(lines, api.SimEvent{Done: done})
	// The stream is encoded and decoded line by line.
	for i := range lines {
		if err := encodeDecode(&lines[i], tr); err != nil {
			return err
		}
		if err := d.add(&lines[i]); err != nil {
			return err
		}
	}
	return nil
}

func evalCoexplore(ctx context.Context, req *api.SimulateRequest, tr *tracer, d digest, st *layerStats) error {
	if err := decodeValidate("simulate", req, tr); err != nil {
		return err
	}
	dev, err := device.Lookup(req.Device)
	if err != nil {
		return err
	}
	specs, specNames := simSpecs(req)
	bb := bbOptions(req.Options)
	cfg := sim.CoExploreConfig{Mix: simMix(req), Estimator: estimator, BB: bb, Workers: bb.Workers}
	for _, name := range req.Policies {
		p, err := sim.PolicyByName(name)
		if err != nil {
			return err
		}
		cfg.Policies = append(cfg.Policies, p)
	}
	sp := tr.begin("sim.coexplore")
	scores, front, stats, err := sim.CoExplore(ctx, dev, specs, cfg, nil, nil)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	st.bb = stats
	st.replays = len(scores)
	if tr != nil {
		if err := traceCoexploreParts(ctx, dev, specs, cfg, front, tr); err != nil {
			return err
		}
	}
	done := &api.SimDone{
		Scores:        make([]api.SimScore, len(scores)),
		FrontSize:     len(front),
		OrgsTruncated: len(front) > sim.DefaultMaxOrgs,
	}
	for i, sc := range scores {
		done.Scores[i] = *wireScore(specNames, sc)
	}
	ws := wireStats(stats)
	ws.FrontSize = len(front)
	done.Stats = &ws
	ev := api.SimEvent{Done: done}
	if err := encodeDecode(&ev, tr); err != nil {
		return err
	}
	return d.add(&ev)
}

// traceCoexploreParts times the pieces CoExplore is made of, on the same
// specs: the branch-and-bound run, then BuildGroups and one Run per scored
// front organization and policy. These are layer probes, not request-path
// work: CoExplore ran them all already.
func traceCoexploreParts(ctx context.Context, dev *device.Device, specs []sim.Spec, cfg sim.CoExploreConfig, front []dse.DesignPoint, tr *tracer) error {
	prms := make([]dse.PRM, len(specs))
	for i, sp := range specs {
		prms[i] = dse.PRM{Name: sp.Name, Req: sp.Req}
	}
	e := &dse.Explorer{Device: dev, Estimator: cfg.Estimator}
	sp := tr.begin("sim.coexplore_bb")
	_, _, err := e.ExploreParetoBB(ctx, prms, cfg.BB)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	jobs, err := cfg.Mix.Generate(len(specs))
	if err != nil {
		return err
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		for _, name := range sim.PolicyNames() {
			p, _ := sim.PolicyByName(name)
			policies = append(policies, p)
		}
	}
	for oi, dp := range front {
		if oi >= sim.DefaultMaxOrgs {
			break
		}
		sp = tr.begin("sim.build_groups")
		plat, err := sim.BuildGroups(dev, specs, dp.Groups)
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		for _, pol := range policies {
			sp = tr.begin("sim.replay")
			_, err := sim.Run(ctx, sim.Config{Platform: plat, Policy: pol, Estimator: cfg.Estimator}, jobs, nil)
			tr.end(sp, 1)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// The helpers below mirror the service's wire conversions
// (internal/service handlers.go and handlers_sim.go), so an in-process answer
// has the exact shape of the HTTP one.

func bbOptions(o api.ExploreOptions) dse.BBOptions {
	opts := dse.BBOptions{
		Workers:         o.Workers,
		DominancePrune:  !o.DisableDominancePrune,
		DisableFitPrune: o.DisableFitPrune,
	}
	if o.Symmetry == "off" {
		opts.Symmetry = dse.SymmetryOff
	}
	if o.Memo == "off" {
		opts.Memo = dse.MemoOff
	}
	return opts
}

func names(prms []api.PRM) []string {
	out := make([]string, len(prms))
	for i, p := range prms {
		out[i] = p.Name
	}
	return out
}

func simSpecs(req *api.SimulateRequest) ([]sim.Spec, []string) {
	var specs []sim.Spec
	if req.SyntheticN > 0 {
		for _, p := range dse.SyntheticPRMs(req.SyntheticN) {
			specs = append(specs, sim.Spec{Name: p.Name, Req: p.Req})
		}
	} else {
		for i, p := range req.PRMs {
			name := p.Name
			if name == "" {
				name = fmt.Sprintf("M%d", i)
			}
			specs = append(specs, sim.Spec{Name: name, Req: p.Req.Core()})
		}
	}
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Name
	}
	return specs, out
}

func simMix(req *api.SimulateRequest) sim.Mix {
	return sim.Mix{
		Jobs:           req.Mix.Jobs,
		Seed:           req.Mix.Seed,
		Arrival:        sim.Arrival(req.Mix.Arrival),
		MeanGap:        time.Duration(req.Mix.MeanGapUS) * time.Microsecond,
		MeanExec:       time.Duration(req.Mix.MeanExecUS) * time.Microsecond,
		Burst:          req.Mix.Burst,
		Weights:        req.Mix.Weights,
		PriorityLevels: req.Mix.PriorityLevels,
	}
}

func wireOrg(o core.Organization) *api.Organization {
	return &api.Organization{
		H: o.H, WCLB: o.WCLB, WDSP: o.WDSP, WBRAM: o.WBRAM,
		Region: &api.Region{Row: o.Region.Row, Col: o.Region.Col, H: o.Region.H, W: o.Region.W},
	}
}

func wirePoint(prmNames []string, dp dse.DesignPoint) *api.DesignPoint {
	out := &api.DesignPoint{
		Groups:              make([][]string, len(dp.Groups)),
		Feasible:            dp.Feasible,
		Infeasibility:       dp.Infeasibility,
		TotalTiles:          dp.TotalTiles,
		MaxBitstreamBytes:   dp.MaxBitstreamBytes,
		TotalBitstreamBytes: dp.TotalBitstreamBytes,
		WorstReconfigNS:     dp.WorstReconfig.Nanoseconds(),
		MinRU:               dp.MinRU,
	}
	for g, members := range dp.Groups {
		gn := make([]string, len(members))
		for i, idx := range members {
			gn[i] = prmNames[idx]
		}
		out.Groups[g] = gn
	}
	return out
}

func wireStats(stats dse.BBStats) api.ExploreStats {
	return api.ExploreStats{
		Partitions:      stats.Partitions,
		Evaluated:       stats.Evaluated,
		PrunedFit:       stats.PrunedFit,
		PrunedDominated: stats.PrunedDominated,
		GroupPricings:   stats.GroupPricings,
		Classes:         stats.Classes,
		OrbitsCollapsed: stats.CollapsedSymmetry,
		MemoHits:        stats.MemoHits,
		MemoMisses:      stats.MemoMisses,
		MemoEntries:     stats.MemoEntries,
	}
}

func wireSnapshot(org int, policy string, sn sim.Snapshot) *api.SimSnapshot {
	return &api.SimSnapshot{
		Org: org, Policy: policy,
		Seq: sn.Seq, NowNS: sn.NowNS, Submitted: sn.Submitted, Completed: sn.Completed,
		Ready: sn.Ready, Running: sn.Running, Reconfigs: sn.Reconfigs,
		Preemptions: sn.Preemptions, ICAPBusy: sn.ICAPBusy, MeanWaitNS: sn.MeanWaitNS,
	}
}

func wireMetrics(res sim.Result) *api.SimMetrics {
	return &api.SimMetrics{
		Policy: res.Policy, Jobs: res.Jobs, Completed: res.Completed,
		MakespanNS: res.MakespanNS, MeanWaitNS: res.MeanWaitNS, P99WaitNS: res.P99WaitNS,
		MaxWaitNS: res.MaxWaitNS, MeanResponseNS: res.MeanResponseNS,
		Reconfigs: res.Reconfigs, Preemptions: res.Preemptions,
		ICAPTransfers: res.ICAPTransfers, ICAPBusy: res.ICAPBusy, Utilization: res.Utilization,
	}
}

func wireScore(specNames []string, sc sim.OrgScore) *api.SimScore {
	out := &api.SimScore{Org: sc.Org, Groups: make([][]string, len(sc.Groups)), Metrics: *wireMetrics(sc.Result)}
	for g, members := range sc.Groups {
		gn := make([]string, len(members))
		for i, idx := range members {
			gn[i] = specNames[idx]
		}
		out.Groups[g] = gn
	}
	return out
}
