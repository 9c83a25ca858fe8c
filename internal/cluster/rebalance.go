package cluster

// Shard membership changes. Refresh rebuilds the router's routing
// metadata from what the shards actually hold; handleRebalance
// applies a new shard set by re-placing every shard-resident graph
// under the new ring, shipping each moved graph's newest published
// snapshot (export → adopt at the carried version → delete) so a
// join/leave needs no recount and no quiesce.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"butterfly/serveapi"
)

// inventory maps shard-resident graph name → the shards holding it.
// Unreachable shards are reported in errs and simply contribute no
// holdings (their graphs stay where they are).
func (rt *Router) inventory(ctx context.Context, shards []string) (map[string][]string, []string) {
	type out struct {
		shard string
		names []string
		err   error
	}
	outs := make([]out, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			sr, err := rt.forward(ctx, shard, http.MethodGet, "/v1/graphs", "", 0, nil, nil)
			if err == nil && sr.status != http.StatusOK {
				err = fmt.Errorf("status %d", sr.status)
			}
			var gl serveapi.GraphList
			if err == nil {
				err = json.Unmarshal(sr.body, &gl)
			}
			o := out{shard: shard, err: err}
			for _, gi := range gl.Graphs {
				if gi.State == "" { // loading ingests are not movable
					o.names = append(o.names, gi.Name)
				}
			}
			outs[i] = o
		}(i, shard)
	}
	wg.Wait()
	held := map[string][]string{}
	var errs []string
	for _, o := range outs {
		if o.err != nil {
			errs = append(errs, fmt.Sprintf("list %s: %v", o.shard, o.err))
			continue
		}
		for _, n := range o.names {
			held[n] = append(held[n], o.shard)
		}
	}
	return held, errs
}

// Refresh rebuilds the router's graph metadata from the shards: every
// partition marker found on any shard re-registers its logical graph
// as partitioned, every other graph as plain. Call it after router
// restart (the routing state is derivable, not durable) — bfserved
// does on startup.
func (rt *Router) Refresh(ctx context.Context) error {
	ring := rt.currentRing()
	held, errs := rt.inventory(ctx, ring.Nodes())
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for name := range held {
		logical, _, p, ok := splitPartName(name)
		if !ok {
			logical, p = name, 0
		}
		m := rt.graphs[logical]
		if m == nil {
			m = &graphMeta{}
			rt.graphs[logical] = m
		}
		if p >= 2 {
			m.partitions = p
		}
	}
	// Membership (or shard content) may have changed under the pinned
	// partials — rebalance moves partitions, adopts mint new partial-
	// log epochs. Drop every pin; the next gather re-bases.
	for _, m := range rt.graphs {
		m.pc.clear()
	}
	if len(errs) > 0 {
		return fmt.Errorf("refresh incomplete: %v", errs)
	}
	return nil
}

// desiredPlacement computes where a shard-resident graph should live
// under a ring: partition graphs at their partition home, plain
// graphs at their first Replicas successors.
func (rt *Router) desiredPlacement(ring *Ring, name string) []string {
	if logical, i, p, ok := splitPartName(name); ok {
		homes := rt.partHomes(ring, logical, p)
		if homes == nil {
			return nil
		}
		return []string{homes[i]}
	}
	return ring.Successors(name, rt.cfg.Replicas)
}

// moveGraph ships one shard-resident graph from src to dst at its
// current version: export the published snapshot, adopt it remotely
// (the destination recounts and WAL-logs it), report the move.
func (rt *Router) moveGraph(ctx context.Context, name, src, dst string) (serveapi.MovedGraph, error) {
	mv := serveapi.MovedGraph{Graph: name, From: src, To: dst}
	sr, err := rt.forward(ctx, src, http.MethodGet, "/v1/internal/export/"+url.PathEscape(name), "", 0, nil, nil)
	if err == nil && sr.status != http.StatusOK {
		err = fmt.Errorf("export: status %d: %s", sr.status, truncate(sr.body, 200))
	}
	if err != nil {
		return mv, err
	}
	var exp serveapi.ExportResponse
	if err := json.Unmarshal(sr.body, &exp); err != nil {
		return mv, fmt.Errorf("export: %v", err)
	}
	adopt := serveapi.AdoptRequest{
		Name: exp.Name, M: exp.M, N: exp.N,
		Version: exp.Version, Count: exp.Count, Edges: exp.Edges,
		Replace: true,
	}
	body, _ := json.Marshal(&adopt)
	sr, err = rt.forward(ctx, dst, http.MethodPost, "/v1/internal/adopt", "application/json", 0, nil, body)
	if err == nil && sr.status/100 != 2 {
		err = fmt.Errorf("adopt: status %d: %s", sr.status, truncate(sr.body, 200))
	}
	if err != nil {
		return mv, err
	}
	mv.Version = exp.Version
	mv.Edges = int64(len(exp.Edges))
	return mv, nil
}

// handleRebalance applies a membership change: swap in the shard set
// from the request (or keep the current one), re-place every graph,
// copy what is missing from a current holder, then delete copies that
// no longer belong. Copy-before-delete ordering means a failure
// mid-rebalance leaves extra copies, never missing ones; re-running
// the rebalance converges.
func (rt *Router) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var req serveapi.RebalanceRequest
	body, err := readBody(w, r)
	if err == nil && len(body) > 0 {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		rt.writeBodyErr(w, err)
		return
	}
	start := time.Now()
	oldRing := rt.currentRing()
	newShards := req.Shards
	if len(newShards) == 0 {
		newShards = oldRing.Nodes()
	}
	newRing := NewRing(newShards, rt.cfg.VNodes)
	if newRing.Len() == 0 {
		rt.writeErr(w, http.StatusBadRequest, serveapi.CodeInvalidArgument, "shard set must not be empty", 0)
		return
	}

	// Inventory across the union of old and new membership: a leaving
	// shard still holds graphs that must ship out.
	union := map[string]bool{}
	for _, s := range oldRing.Nodes() {
		union[s] = true
	}
	for _, s := range newRing.Nodes() {
		union[s] = true
	}
	all := make([]string, 0, len(union))
	for s := range union {
		all = append(all, s)
	}
	sort.Strings(all)
	held, errs := rt.inventory(r.Context(), all)

	resp := serveapi.RebalanceResponse{Shards: newRing.Len(), Moved: []serveapi.MovedGraph{}, Errors: errs}
	names := make([]string, 0, len(held))
	for n := range held {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		holders := held[name]
		want := rt.desiredPlacement(newRing, name)
		if want == nil {
			continue
		}
		isHolder := func(s string) bool {
			for _, h := range holders {
				if h == s {
					return true
				}
			}
			return false
		}
		wanted := func(s string) bool {
			for _, h := range want {
				if h == s {
					return true
				}
			}
			return false
		}
		copiedAll := true
		for _, dst := range want {
			if isHolder(dst) {
				continue
			}
			mv, err := rt.moveGraph(r.Context(), name, holders[0], dst)
			if err != nil {
				resp.Errors = append(resp.Errors, fmt.Sprintf("%s → %s: %v", name, dst, err))
				copiedAll = false
				continue
			}
			rt.rebalMoves.With().Inc()
			resp.Moved = append(resp.Moved, mv)
		}
		if !copiedAll {
			continue // keep old copies until every new home has one
		}
		for _, src := range holders {
			if wanted(src) {
				continue
			}
			sr, err := rt.forward(r.Context(), src, http.MethodDelete, "/v1/graphs/"+url.PathEscape(name), "", 0, nil, nil)
			if err == nil && sr.status/100 != 2 && sr.status != http.StatusNotFound {
				err = fmt.Errorf("status %d", sr.status)
			}
			if err != nil {
				resp.Errors = append(resp.Errors, fmt.Sprintf("delete %s on %s: %v", name, src, err))
			}
		}
	}

	rt.mu.Lock()
	rt.ring = newRing
	rt.mu.Unlock()
	if err := rt.Refresh(r.Context()); err != nil {
		resp.Errors = append(resp.Errors, err.Error())
	}
	resp.ElapsedMS = time.Since(start).Milliseconds()
	rt.writeJSON(w, http.StatusOK, &resp)
}
