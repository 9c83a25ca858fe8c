// Package serve implements bfserved: a concurrent butterfly query
// service over a registry of named bipartite graphs.
//
// The design splits each graph into a mutable authority and immutable
// views. The authority is a DynamicCounter guarded by a per-graph
// mutex; mutation batches stream through it edge by edge (each a local
// wedge sweep, never a recount) and finish by materializing a fresh
// immutable Graph that is atomically published together with a bumped
// version number. Readers never lock: they grab the current Snapshot
// pointer and keep counting on it even while later batches publish new
// versions — copy-on-write snapshot isolation. The (graph, version)
// pair also keys the result cache, so cached results can never serve a
// stale edge set.
//
// Around the registry sit the production pieces: a concurrency
// limiter with a bounded admission queue (429 load-shedding), per-
// request deadlines threaded into the counting loops via
// CountWithContext, an LRU result cache, Prometheus-format metrics,
// and draining shutdown. See docs/SERVING.md.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"butterfly"
)

// Snapshot is one immutable published version of a registered graph.
// Everything reachable from it is read-only, so any number of queries
// may use it concurrently, indefinitely, regardless of later
// mutations.
type Snapshot struct {
	// Name of the registered graph.
	Name string
	// Version starts at 1 when the graph is registered and increments
	// once per mutation batch that changes the edge set.
	Version uint64
	// Graph is the immutable edge set of this version.
	Graph *butterfly.Graph
	// Count is the exact butterfly count at this version, maintained
	// incrementally by the dynamic counter (O(1) to read here).
	Count int64
}

// MutateResult reports the effect of one mutation batch.
type MutateResult struct {
	Version   uint64 // version the batch produced (unchanged if it changed nothing)
	Inserted  int    // edges actually added (duplicates excluded)
	Deleted   int    // edges actually removed (misses excluded)
	Created   int64  // butterflies created by the inserts
	Destroyed int64  // butterflies destroyed by the deletes
	Count     int64  // butterfly count of the resulting version
	Edges     int64  // edge count of the resulting version
}

// entry pairs a graph's mutable authority with its published snapshot.
type entry struct {
	name string
	m, n int // immutable dimensions; validate mutations without locking

	// mu serializes mutation batches (DynamicCounter is not safe for
	// concurrent mutation). Readers never take it.
	mu  sync.Mutex
	dyn *butterfly.DynamicCounter

	// plog, when non-nil, is the wedge-partial delta history (see
	// partiallog.go). Guarded by mu; nil until the first partial
	// export activates it.
	plog *partialLog

	// snap is the atomically published current version.
	snap atomic.Pointer[Snapshot]
}

// Persister receives every registry state change before it is
// published to readers — the write-ahead hook that makes the registry
// durable. internal/store.Store implements it. Log calls happen while
// the registry holds the locks that order the change, so the log's
// record order always matches publication order; an error from a Log
// call aborts (and for mutations, rolls back) the change.
type Persister interface {
	// LogRegister records name (re)entering the registry with its full
	// edge set and initial exact count at version 1.
	LogRegister(name string, version uint64, g *butterfly.Graph, count int64) error
	// LogMutate records one applied batch with its post-state stamps.
	LogMutate(name string, version uint64, inserts, deletes [][2]int, count, edges int64) error
	// LogDrop records name leaving the registry.
	LogDrop(name string) error
}

// Registry is a concurrency-safe collection of named versioned graphs.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry

	// ingests are graphs still streaming in (see ingest.go): a name is
	// in entries (registered, exact-countable) or ingests (loading,
	// answerable only by the reservoir estimator), never both.
	ingests map[string]*ingestState

	// persist, when non-nil, is the durability hook: appended to
	// before any state change is published (append-before-publish).
	persist Persister
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry), ingests: make(map[string]*ingestState)}
}

// SetPersister installs the durability hook. Set it before the
// registry starts taking traffic; graphs adopted from recovery are
// not re-logged (their history is already in the store).
func (r *Registry) SetPersister(p Persister) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.persist = p
}

// ErrNotFound reports a query against an unregistered graph name.
type ErrNotFound struct{ Name string }

func (e ErrNotFound) Error() string { return fmt.Sprintf("graph %q not registered", e.Name) }

// ErrExists reports a Register without Replace over an existing name.
type ErrExists struct{ Name string }

func (e ErrExists) Error() string { return fmt.Sprintf("graph %q already registered", e.Name) }

// DurabilityError reports a state change the WAL refused to record.
// The change was not applied (mutations are rolled back); it answers
// 500, never 4xx — the request was fine, the disk was not.
type DurabilityError struct{ Err error }

func (e DurabilityError) Error() string { return fmt.Sprintf("not durable: %v", e.Err) }
func (e DurabilityError) Unwrap() error { return e.Err }

// Register publishes g under name at version 1. Registration computes
// the initial exact count once (seeding the dynamic counter); replace
// permits overwriting an existing name.
func (r *Registry) Register(name string, g *butterfly.Graph, replace bool) (*Snapshot, error) {
	return r.RegisterObserved(name, g, replace, nil)
}

// RegisterObserved is Register with an optional stage hook: when
// non-nil, stage receives "count.seed" (seeding the dynamic counter:
// one copy of g's adjacency plus one static count of g) and, under a
// persister, "wal.append" (the durable register record). nil is
// exactly Register.
func (r *Registry) RegisterObserved(name string, g *butterfly.Graph, replace bool, stage func(name string, d time.Duration)) (*Snapshot, error) {
	if name == "" {
		return nil, fmt.Errorf("empty graph name")
	}
	// Seed the authority outside the registry lock — the initial count
	// is the expensive part and must not block unrelated lookups.
	t0 := time.Now()
	dyn := butterfly.NewDynamicCounterFromGraph(g)
	if stage != nil {
		stage("count.seed", time.Since(t0))
	}
	e := &entry{name: name, m: g.NumV1(), n: g.NumV2(), dyn: dyn}
	snap := &Snapshot{Name: name, Version: 1, Graph: g, Count: dyn.Count()}
	e.snap.Store(snap)

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok && !replace {
		return nil, ErrExists{name}
	}
	if _, ok := r.ingests[name]; ok && !replace {
		return nil, ErrExists{name}
	}
	// Append-before-publish: the register record (carrying the full
	// edge set) must be durable before any reader can observe the
	// graph. Holding r.mu across log+publish keeps the WAL's record
	// order identical to publication order.
	if r.persist != nil {
		w0 := time.Now()
		err := r.persist.LogRegister(name, 1, g, snap.Count)
		if stage != nil {
			stage("wal.append", time.Since(w0))
		}
		if err != nil {
			return nil, DurabilityError{err}
		}
	}
	// Registering (with replace) over an open ingest supersedes it —
	// this is also how sealing atomically swaps loading → registered.
	delete(r.ingests, name)
	r.entries[name] = e
	return snap, nil
}

// Adopt publishes a graph recovered from the durable store: dyn is
// the already-replayed authority and version is where its history
// left off. Nothing is recounted and nothing is logged — the store
// already holds this graph's past. Adopt refuses to overwrite a live
// name.
func (r *Registry) Adopt(name string, dyn *butterfly.DynamicCounter, version uint64) (*Snapshot, error) {
	if name == "" {
		return nil, fmt.Errorf("empty graph name")
	}
	if version == 0 {
		return nil, fmt.Errorf("adopt %q: version must be ≥ 1", name)
	}
	g := dyn.Snapshot()
	e := &entry{name: name, m: g.NumV1(), n: g.NumV2(), dyn: dyn}
	snap := &Snapshot{Name: name, Version: version, Graph: g, Count: dyn.Count()}
	e.snap.Store(snap)

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return nil, ErrExists{name}
	}
	r.entries[name] = e
	return snap, nil
}

// AdoptRemote installs a graph shipped from another shard (cluster
// rebalancing) at its carried version — unlike Adopt it is logged to
// the persister, because this shard's store has no history for the
// graph yet. The carried count is cross-checked against the static
// recount that seeds the dynamic counter (the same logical-corruption
// gate store recovery applies to register records); a mismatch
// refuses the adoption.
// Replace permits overwriting an existing name, which is how a
// rebalance converges when a previous attempt half-finished.
func (r *Registry) AdoptRemote(name string, g *butterfly.Graph, version uint64, count int64, replace bool) (*Snapshot, error) {
	if name == "" {
		return nil, fmt.Errorf("empty graph name")
	}
	if version == 0 {
		return nil, fmt.Errorf("adopt %q: version must be ≥ 1", name)
	}
	dyn := butterfly.NewDynamicCounterFromGraph(g)
	if dyn.Count() != count {
		return nil, fmt.Errorf("adopt %q: carried count %d, recount computed %d", name, count, dyn.Count())
	}
	e := &entry{name: name, m: g.NumV1(), n: g.NumV2(), dyn: dyn}
	snap := &Snapshot{Name: name, Version: version, Graph: g, Count: count}
	e.snap.Store(snap)

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok && !replace {
		return nil, ErrExists{name}
	}
	if _, ok := r.ingests[name]; ok && !replace {
		return nil, ErrExists{name}
	}
	if r.persist != nil {
		if err := r.persist.LogRegister(name, version, g, count); err != nil {
			return nil, DurabilityError{err}
		}
	}
	delete(r.ingests, name)
	r.entries[name] = e
	return snap, nil
}

// Get returns the current snapshot of name. A name still streaming
// through an open ingest has no snapshot to query exactly and returns
// ErrLoading — callers wanting the approximate answer go through
// Ingest instead.
func (r *Registry) Get(name string) (*Snapshot, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	_, loading := r.ingests[name]
	r.mu.RUnlock()
	if ok {
		return e.snap.Load(), nil
	}
	if loading {
		return nil, ErrLoading{name}
	}
	return nil, ErrNotFound{name}
}

// Drop removes name from the registry. In-flight queries holding a
// snapshot finish unaffected. Dropping a name with an open ingest
// aborts the ingest (nothing durable to log — ingests are volatile
// until sealed).
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		if _, ok := r.ingests[name]; ok {
			delete(r.ingests, name)
			return nil
		}
		return ErrNotFound{name}
	}
	if r.persist != nil {
		if err := r.persist.LogDrop(name); err != nil {
			return DurabilityError{err}
		}
	}
	delete(r.entries, name)
	return nil
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Snapshots returns the current snapshot of every registered graph,
// sorted by name (the metrics exporter's view).
func (r *Registry) Snapshots() []*Snapshot {
	names := r.Names()
	out := make([]*Snapshot, 0, len(names))
	for _, n := range names {
		if s, err := r.Get(n); err == nil {
			out = append(out, s)
		}
	}
	return out
}

// Mutate applies one batch — inserts first, then deletes — to name and
// publishes the resulting version. The batch is atomic with respect to
// readers: no query ever observes a half-applied batch, because
// queries only see published snapshots and the new snapshot is
// materialized after the whole batch has been applied. Endpoints
// outside the graph's original dimensions fail the batch up front,
// before any mutation is applied. Duplicate inserts and deletes of
// absent edges are tolerated (counted in neither Inserted nor
// Deleted). A batch that changes nothing creates no version: it is
// not logged, nothing is published, and the result reports the
// current version and count.
func (r *Registry) Mutate(name string, inserts, deletes [][2]int) (MutateResult, error) {
	return r.MutateObserved(name, inserts, deletes, nil)
}

// MutateObserved is Mutate with an optional stage hook: when non-nil
// and the registry is durable, stage receives "wal.append" with the
// time spent in the write-ahead log. nil is exactly Mutate.
func (r *Registry) MutateObserved(name string, inserts, deletes [][2]int, stage func(name string, d time.Duration)) (MutateResult, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return MutateResult{}, ErrNotFound{name}
	}

	// Validate the whole batch against the (immutable) dimensions
	// first so the application loop below cannot fail half-way.
	for _, op := range inserts {
		if op[0] < 0 || op[0] >= e.m || op[1] < 0 || op[1] >= e.n {
			return MutateResult{}, fmt.Errorf("insert (%d,%d) out of range %dx%d", op[0], op[1], e.m, e.n)
		}
	}
	for _, op := range deletes {
		if op[0] < 0 || op[0] >= e.m || op[1] < 0 || op[1] >= e.n {
			return MutateResult{}, fmt.Errorf("delete (%d,%d) out of range %dx%d", op[0], op[1], e.m, e.n)
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	var res MutateResult
	// Ops that actually changed the edge set, kept for rollback if the
	// WAL append fails: memory must never run ahead of the log.
	var applied [][3]int // (u, v, 0=inserted 1=deleted)
	// V1 centers whose rows actually changed — the wedge-delta kernel's
	// input when the partial log is active.
	var touched []int
	for _, op := range inserts {
		added, created, err := e.dyn.InsertEdge(op[0], op[1])
		if err != nil {
			return MutateResult{}, err // unreachable: validated above
		}
		if added {
			res.Inserted++
			res.Created += created
			if r.persist != nil {
				applied = append(applied, [3]int{op[0], op[1], 0})
			}
			if e.plog != nil {
				touched = append(touched, op[0])
			}
		}
	}
	for _, op := range deletes {
		removed, destroyed, err := e.dyn.DeleteEdge(op[0], op[1])
		if err != nil {
			return MutateResult{}, err // unreachable: validated above
		}
		if removed {
			res.Deleted++
			res.Destroyed += destroyed
			if r.persist != nil {
				applied = append(applied, [3]int{op[0], op[1], 1})
			}
			if e.plog != nil {
				touched = append(touched, op[0])
			}
		}
	}

	prev := e.snap.Load()
	if res.Inserted == 0 && res.Deleted == 0 {
		res.Version = prev.Version
		res.Count = prev.Count
		res.Edges = prev.Graph.NumEdges()
		return res, nil
	}

	// Append-before-publish: the batch becomes durable (to the extent
	// the fsync policy promises) before any reader can observe it. If
	// the log refuses the record, undo the batch so memory and log
	// agree, and fail the request — an acked mutation is always in the
	// WAL, a nacked one is in neither.
	if r.persist != nil {
		w0 := time.Now()
		err := r.persist.LogMutate(name, prev.Version+1, inserts, deletes, e.dyn.Count(), e.dyn.NumEdges())
		if stage != nil {
			stage("wal.append", time.Since(w0))
		}
		if err != nil {
			for i := len(applied) - 1; i >= 0; i-- {
				op := applied[i]
				if op[2] == 0 {
					e.dyn.DeleteEdge(op[0], op[1]) //nolint:errcheck // in-range by construction
				} else {
					e.dyn.InsertEdge(op[0], op[1]) //nolint:errcheck // in-range by construction
				}
			}
			return MutateResult{}, DurabilityError{err}
		}
	}

	// Copy-on-write publish: materialize the new immutable graph and
	// swap the snapshot pointer. Readers on the old pointer are
	// untouched; new queries (and new cache keys) see the new version.
	next := &Snapshot{
		Name:    name,
		Version: prev.Version + 1,
		Graph:   e.dyn.Snapshot(),
		Count:   e.dyn.Count(),
	}
	e.snap.Store(next)

	// Record the batch's signed partial-map change, computed over just
	// the touched centers — O(affected wedges), not O(graph). Appending
	// after the publish keeps the log's versions aligned with what
	// readers can observe; the WAL-rollback path above never reaches
	// here, so the history never contains an unacked batch.
	if e.plog != nil {
		e.plog.append(next.Version, butterfly.WedgePartialDelta(prev.Graph, next.Graph, touched))
	}

	res.Version = next.Version
	res.Count = next.Count
	res.Edges = next.Graph.NumEdges()
	return res, nil
}

// CheckpointTo hands a consistent view of every graph's published
// state to fn — consistent meaning no mutation can be between its WAL
// append and its snapshot publish while fn runs, so a checkpoint
// built from the view plus a truncated WAL never loses an acked
// batch. It achieves this by holding the registry write lock and
// every per-graph mutation lock for fn's duration: registrations,
// drops and mutations stall; queries are untouched (they never lock —
// reads, cache hits and in-flight counts proceed on their pinned
// snapshots).
//
// Lock order is r.mu → e.mu → (store), consistent with Mutate's
// e.mu → (store); nothing takes e.mu before r.mu.
func (r *Registry) CheckpointTo(fn func(snaps []*Snapshot) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	snaps := make([]*Snapshot, 0, len(names))
	for _, n := range names {
		e := r.entries[n]
		e.mu.Lock()
		defer e.mu.Unlock()
		snaps = append(snaps, e.snap.Load())
	}
	return fn(snaps)
}
