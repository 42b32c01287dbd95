package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/dse"
	"repro/internal/service/api"
)

// maxBodyBytes bounds request bodies; a full 1024-item batch fits with room.
const maxBodyBytes = 8 << 20

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, api.DevicesResponse{Devices: device.Descriptors()})
}

// handlePRR batch-evaluates the PRR size/organization model: one result per
// PRM, Eqs. (1)–(17).
func (s *Server) handlePRR(w http.ResponseWriter, r *http.Request) {
	var req api.PRRRequest
	dev, ok := decodeBatch(w, r, &req, func() (string, error) { return req.Device, req.Validate() })
	if !ok {
		return
	}
	s.serveBatch(r.Context(), w, "prr", api.CanonicalKey("prr", &req), func() ([]byte, error) {
		resp := api.PRRResponse{Device: dev.Name, Results: make([]api.PRRResult, len(req.PRMs))}
		m := core.NewPRRModel(dev)
		for i, prm := range req.PRMs {
			out := &resp.Results[i]
			out.Name = prm.Name
			res, err := m.Estimate(prm.Req.Core())
			if err != nil {
				out.Error = err.Error()
				continue
			}
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
		return json.Marshal(&resp)
	})
}

// handleBitstream batch-evaluates the bitstream size model, Eqs. (18)–(23).
func (s *Server) handleBitstream(w http.ResponseWriter, r *http.Request) {
	var req api.BitstreamRequest
	dev, ok := decodeBatch(w, r, &req, func() (string, error) { return req.Device, req.Validate() })
	if !ok {
		return
	}
	s.serveBatch(r.Context(), w, "bitstream", api.CanonicalKey("bitstream", &req), func() ([]byte, error) {
		resp := api.BitstreamResponse{Device: dev.Name, Results: make([]api.BitstreamResult, len(req.Items))}
		bit := core.NewBitstreamModel(dev.Params)
		for i, item := range req.Items {
			out := &resp.Results[i]
			org := item.Core()
			if org.H <= 0 || org.W() <= 0 {
				out.Error = fmt.Sprintf("item %d: organization needs h >= 1 and at least one column", i)
				continue
			}
			out.OK = true
			out.SizeWords = bit.SizeWords(org)
			out.SizeBytes = bit.SizeBytes(org)
			out.ConfigWordsPerRow = bit.ConfigWordsPerRow(org)
			out.BRAMInitWordsPerRow = bit.BRAMInitWordsPerRow(org)
			out.ReconfigNS = s.estimator.Estimate(out.SizeBytes).Nanoseconds()
		}
		return json.Marshal(&resp)
	})
}

// decodeBatch reads, decodes and validates a batch request body, resolving
// its device. Errors are answered with 400 and reported via ok=false.
func decodeBatch(w http.ResponseWriter, r *http.Request, req any, validate func() (string, error)) (*device.Device, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpErr(w, http.StatusBadRequest, "reading body: "+err.Error())
		return nil, false
	}
	if err := json.Unmarshal(body, req); err != nil {
		httpErr(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return nil, false
	}
	devName, err := validate()
	if err != nil {
		httpErr(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	dev, err := device.Lookup(devName)
	if err != nil {
		httpErr(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return dev, true
}

// serveBatch is the shared cache + singleflight path of the batch endpoints:
// answer from the LRU when the canonical key hits, otherwise coalesce
// identical in-flight computations and cache the winner's response.
func (s *Server) serveBatch(ctx context.Context, w http.ResponseWriter, endpoint, key string, compute func() ([]byte, error)) {
	annotations(ctx).key = key
	if resp, ok := s.cache.Get(key); ok {
		s.met.cacheHits.Inc()
		w.Header().Set("X-Cache", "hit")
		writeRawJSON(w, resp)
		return
	}
	s.met.cacheMisses.Inc()
	resp, shared, err := s.flight.Do(key, func() ([]byte, error) {
		if s.cfg.evalHook != nil {
			s.cfg.evalHook(endpoint)
		}
		out, err := compute()
		if err != nil {
			return nil, err
		}
		if ev := s.cache.Put(key, out); ev > 0 {
			s.met.cacheEvictions.Add(int64(ev))
		}
		s.met.cacheEntries.Set(int64(s.cache.Len()))
		return out, nil
	})
	if shared {
		s.met.coalesced.Inc()
	}
	if err != nil {
		httpErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("X-Cache", "miss")
	writeRawJSON(w, resp)
}

// handleExplore streams a branch-and-bound exploration as NDJSON: one Point
// event per priced design point (unless front_only), then a Done event with
// the exact Pareto front and engine statistics. The stream follows the
// request context — a client disconnect cancels the engine within a few
// hundred tree nodes — and participates in graceful drain.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var raw api.ExploreRequest
	dev, ok := decodeBatch(w, r, &raw, func() (string, error) { return raw.Device, raw.Validate() })
	if !ok {
		return
	}
	// Price the canonicalized PRM order: permutations of the same workload
	// then produce byte-identical responses (groups reference PRMs by name),
	// share one cache key, and lay same-signature PRMs out contiguously where
	// the symmetry collapse is strongest.
	req := raw.Canonicalized()
	prms := make([]dse.PRM, 0, len(req.PRMs))
	if req.SyntheticN > 0 {
		prms = dse.SyntheticPRMs(req.SyntheticN)
	} else {
		for _, p := range req.PRMs {
			prms = append(prms, dse.PRM{Name: p.Name, Req: p.Req.Core()})
		}
	}

	workers := req.Options.Workers
	if workers <= 0 {
		workers = s.cfg.ExploreWorkers
	}
	e := &dse.Explorer{Device: dev, Estimator: s.estimator}
	opts := dse.BBOptions{
		Workers:         workers,
		DominancePrune:  !req.Options.DisableDominancePrune,
		DisableFitPrune: req.Options.DisableFitPrune,
	}
	if req.Options.Symmetry == "off" {
		opts.Symmetry = dse.SymmetryOff
	}
	if req.Options.Memo == "off" {
		opts.Memo = dse.MemoOff
	}

	if req.FrontOnly {
		// Front-only explorations are pure request-to-front functions, so
		// they share the batch endpoints' cache + singleflight machinery.
		s.serveExploreFront(r.Context(), w, req, e, prms, opts)
		return
	}

	if !s.registerStream() {
		annotations(r.Context()).shed = "draining"
		httpErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	defer s.unregisterStream()
	s.met.exploreStreams.Inc()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	// A forced shutdown cuts this stream loose mid-run.
	stopDrain := context.AfterFunc(s.drainCtx, cancel)
	defer stopDrain()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)

	var front, points []dse.DesignPoint
	sent := 0
	stats, err := e.ExploreBB(ctx, prms, opts, func(dp dse.DesignPoint) bool {
		if ctx.Err() != nil {
			return false
		}
		if encErr := enc.Encode(api.ExploreEvent{Point: wirePoint(prms, dp)}); encErr != nil {
			// The client is gone; stop the engine.
			cancel()
			return false
		}
		s.met.explorePoints.Inc()
		points = append(points, dp)
		// Flush the first point promptly so clients see liveness, then
		// in batches to keep syscalls off the hot path.
		sent++
		if sent == 1 || sent%256 == 0 {
			flush()
		}
		return true
	})
	if err == nil && ctx.Err() == nil {
		// With the symmetry collapse active the stream carries only fiber
		// representatives; the Done front is always the full expansion, and
		// Pareto orders exact ties by partition rank rather than by the
		// workers' arrival order, so both explore modes report
		// element-for-element identical fronts.
		front = dse.ExpandSymmetric(prms, dse.Pareto(points))
		stats.FrontSize = len(front)
	}
	if err != nil || ctx.Err() != nil {
		s.met.exploreCancelled.Inc()
		// Mid-stream there is no status code left to change; the truncated
		// stream (no Done line) is the cancellation signal.
		return
	}

	done := wireDone(prms, front, stats)
	_ = enc.Encode(api.ExploreEvent{Done: done})
	flush()
}

// serveExploreFront answers a front-only exploration through the response
// cache and singleflight, keyed on the canonicalized request: permutations of
// one PRM multiset hit the same entry. The engine runs under the drain
// context rather than the first caller's request context — coalesced
// followers and future cache hits outlive that caller, so a disconnect must
// not cancel the shared computation; only a server drain does.
func (s *Server) serveExploreFront(ctx context.Context, w http.ResponseWriter, req *api.ExploreRequest, e *dse.Explorer, prms []dse.PRM, opts dse.BBOptions) {
	key := api.CanonicalKey("explore", req)
	annotations(ctx).key = key
	if resp, ok := s.cache.Get(key); ok {
		s.met.cacheHits.Inc()
		w.Header().Set("X-Cache", "hit")
		writeNDJSON(w, resp)
		return
	}
	s.met.cacheMisses.Inc()
	resp, shared, err := s.flight.Do(key, func() ([]byte, error) {
		if !s.registerStream() {
			return nil, errDraining
		}
		defer s.unregisterStream()
		s.met.exploreStreams.Inc()
		if s.cfg.evalHook != nil {
			s.cfg.evalHook("explore")
		}
		front, stats, err := e.ExploreParetoBB(s.drainCtx, prms, opts)
		if err != nil {
			s.met.exploreCancelled.Inc()
			return nil, err
		}
		out, err := json.Marshal(api.ExploreEvent{Done: wireDone(prms, front, stats)})
		if err != nil {
			return nil, err
		}
		out = append(out, '\n')
		if ev := s.cache.Put(key, out); ev > 0 {
			s.met.cacheEvictions.Add(int64(ev))
		}
		s.met.cacheEntries.Set(int64(s.cache.Len()))
		return out, nil
	})
	if shared {
		s.met.coalesced.Inc()
	}
	switch {
	case err == errDraining:
		annotations(ctx).shed = "draining"
		httpErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	case err != nil:
		httpErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("X-Cache", "miss")
	writeNDJSON(w, resp)
}

// errDraining marks front-only explorations refused by a shutdown drain.
var errDraining = fmt.Errorf("service: draining")

// wireDone assembles the stream's terminal event from an expanded front and
// the engine statistics.
func wireDone(prms []dse.PRM, front []dse.DesignPoint, stats dse.BBStats) *api.ExploreDone {
	done := &api.ExploreDone{
		Front: make([]api.DesignPoint, len(front)),
		Stats: api.ExploreStats{
			Partitions:      stats.Partitions,
			Evaluated:       stats.Evaluated,
			PrunedFit:       stats.PrunedFit,
			PrunedDominated: stats.PrunedDominated,
			GroupPricings:   stats.GroupPricings,
			FrontSize:       stats.FrontSize,
			Classes:         stats.Classes,
			OrbitsCollapsed: stats.CollapsedSymmetry,
			MemoHits:        stats.MemoHits,
			MemoMisses:      stats.MemoMisses,
			MemoEntries:     stats.MemoEntries,
		},
	}
	for i, dp := range front {
		done.Front[i] = *wirePoint(prms, dp)
	}
	return done
}

// wireOrg converts a model organization (with placement) to the wire form.
func wireOrg(o core.Organization) *api.Organization {
	return &api.Organization{
		H: o.H, WCLB: o.WCLB, WDSP: o.WDSP, WBRAM: o.WBRAM,
		Region: &api.Region{Row: o.Region.Row, Col: o.Region.Col, H: o.Region.H, W: o.Region.W},
	}
}

// wirePoint converts an engine design point to the wire form, resolving
// group member indexes to PRM names.
func wirePoint(prms []dse.PRM, dp dse.DesignPoint) *api.DesignPoint {
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
		names := make([]string, len(members))
		for i, idx := range members {
			names[i] = prms[idx].Name
		}
		out.Groups[g] = names
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeRawJSON(w http.ResponseWriter, raw []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// writeNDJSON writes a pre-marshaled event-stream body (front-only explore
// responses are a single Done line, cacheable as bytes).
func writeNDJSON(w http.ResponseWriter, raw []byte) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_, _ = w.Write(raw)
}
